//! Real spherical harmonics (SH) up to degree 3, as used by 3DGS for
//! view-dependent color, with analytic gradients.
//!
//! Each Gaussian stores 16 SH coefficients per color channel (48 floats for
//! RGB at degree 3). Rendering evaluates the SH basis in the viewing
//! direction, takes the per-channel dot product with the coefficients, adds
//! `0.5` and clamps at zero, mirroring the reference CUDA implementation in
//! gsplat / 3DGS.

use crate::math::Vec3;

/// Number of SH coefficients for a given degree (`(deg + 1)^2`).
#[inline]
pub const fn num_coeffs(degree: usize) -> usize {
    (degree + 1) * (degree + 1)
}

/// Maximum supported SH degree.
pub const MAX_DEGREE: usize = 3;

/// Number of SH coefficients at the maximum degree (16).
pub const MAX_COEFFS: usize = num_coeffs(MAX_DEGREE);

const SH_C0: f32 = 0.282_094_79;
const SH_C1: f32 = 0.488_602_51;
const SH_C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_2,
];
const SH_C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_33,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Evaluates the SH basis functions for a **unit** direction.
///
/// Only the first `num_coeffs(degree)` entries of the returned array are
/// meaningful; the rest are zero.
pub fn eval_basis(degree: usize, dir: Vec3) -> [f32; MAX_COEFFS] {
    debug_assert!(degree <= MAX_DEGREE, "SH degree {degree} > {MAX_DEGREE}");
    let mut b = [0.0f32; MAX_COEFFS];
    let (x, y, z) = (dir.x, dir.y, dir.z);
    b[0] = SH_C0;
    if degree >= 1 {
        b[1] = -SH_C1 * y;
        b[2] = SH_C1 * z;
        b[3] = -SH_C1 * x;
    }
    if degree >= 2 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        let (xy, yz, xz) = (x * y, y * z, x * z);
        b[4] = SH_C2[0] * xy;
        b[5] = SH_C2[1] * yz;
        b[6] = SH_C2[2] * (2.0 * zz - xx - yy);
        b[7] = SH_C2[3] * xz;
        b[8] = SH_C2[4] * (xx - yy);
    }
    if degree >= 3 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        let xy = x * y;
        b[9] = SH_C3[0] * y * (3.0 * xx - yy);
        b[10] = SH_C3[1] * xy * z;
        b[11] = SH_C3[2] * y * (4.0 * zz - xx - yy);
        b[12] = SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy);
        b[13] = SH_C3[4] * x * (4.0 * zz - xx - yy);
        b[14] = SH_C3[5] * z * (xx - yy);
        b[15] = SH_C3[6] * x * (xx - 3.0 * yy);
    }
    b
}

/// Derivative of each basis function with respect to the (unit) direction.
///
/// Returns `[dB_i/dx, dB_i/dy, dB_i/dz]` for every coefficient index `i`.
pub fn eval_basis_grad(degree: usize, dir: Vec3) -> [[f32; 3]; MAX_COEFFS] {
    debug_assert!(degree <= MAX_DEGREE);
    let mut g = [[0.0f32; 3]; MAX_COEFFS];
    let (x, y, z) = (dir.x, dir.y, dir.z);
    if degree >= 1 {
        g[1] = [0.0, -SH_C1, 0.0];
        g[2] = [0.0, 0.0, SH_C1];
        g[3] = [-SH_C1, 0.0, 0.0];
    }
    if degree >= 2 {
        g[4] = [SH_C2[0] * y, SH_C2[0] * x, 0.0];
        g[5] = [0.0, SH_C2[1] * z, SH_C2[1] * y];
        g[6] = [-2.0 * SH_C2[2] * x, -2.0 * SH_C2[2] * y, 4.0 * SH_C2[2] * z];
        g[7] = [SH_C2[3] * z, 0.0, SH_C2[3] * x];
        g[8] = [2.0 * SH_C2[4] * x, -2.0 * SH_C2[4] * y, 0.0];
    }
    if degree >= 3 {
        let (xx, yy, zz) = (x * x, y * y, z * z);
        g[9] = [
            SH_C3[0] * 6.0 * x * y,
            SH_C3[0] * (3.0 * xx - 3.0 * yy),
            0.0,
        ];
        g[10] = [SH_C3[1] * y * z, SH_C3[1] * x * z, SH_C3[1] * x * y];
        g[11] = [
            -2.0 * SH_C3[2] * x * y,
            SH_C3[2] * (4.0 * zz - xx - 3.0 * yy),
            8.0 * SH_C3[2] * y * z,
        ];
        g[12] = [
            -6.0 * SH_C3[3] * x * z,
            -6.0 * SH_C3[3] * y * z,
            SH_C3[3] * (6.0 * zz - 3.0 * xx - 3.0 * yy),
        ];
        g[13] = [
            SH_C3[4] * (4.0 * zz - 3.0 * xx - yy),
            -2.0 * SH_C3[4] * x * y,
            8.0 * SH_C3[4] * x * z,
        ];
        g[14] = [
            2.0 * SH_C3[5] * x * z,
            -2.0 * SH_C3[5] * y * z,
            SH_C3[5] * (xx - yy),
        ];
        g[15] = [
            SH_C3[6] * (3.0 * xx - 3.0 * yy),
            -6.0 * SH_C3[6] * x * y,
            0.0,
        ];
    }
    g
}

/// Evaluates view-dependent RGB color from SH coefficients.
///
/// `coeffs` holds `num_coeffs(degree)` entries, each an RGB triple, ordered
/// by coefficient index (DC first). The result is `dot(basis, coeffs) + 0.5`
/// clamped at zero from below, per the reference 3DGS implementation.
///
/// `dir` must be a unit vector (the normalized vector from the camera center
/// to the Gaussian mean).
pub fn eval_color(degree: usize, dir: Vec3, coeffs: &[[f32; 3]]) -> [f32; 3] {
    debug_assert!(coeffs.len() >= num_coeffs(degree));
    let basis = eval_basis(degree, dir);
    let mut rgb = [0.5f32; 3];
    for (i, c) in coeffs.iter().enumerate().take(num_coeffs(degree)) {
        for ch in 0..3 {
            rgb[ch] += basis[i] * c[ch];
        }
    }
    [rgb[0].max(0.0), rgb[1].max(0.0), rgb[2].max(0.0)]
}

/// Gradients produced by [`eval_color_backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColorBackward {
    /// `dL/dcoeff[i][channel]` for each SH coefficient.
    pub d_coeffs: Vec<[f32; 3]>,
    /// `dL/ddir` (with respect to the *unit* direction).
    pub d_dir: Vec3,
}

/// Backpropagates a gradient on the output RGB color to the SH coefficients
/// and the unit viewing direction.
///
/// `d_color` is `dL/dcolor` for the clamped output of [`eval_color`]. The
/// clamp is handled here: channels that were clamped to zero receive no
/// gradient.
pub fn eval_color_backward(
    degree: usize,
    dir: Vec3,
    coeffs: &[[f32; 3]],
    d_color: [f32; 3],
) -> ColorBackward {
    let n = num_coeffs(degree);
    debug_assert!(coeffs.len() >= n);
    let basis = eval_basis(degree, dir);
    // Recompute the pre-clamp value to build the clamp mask.
    let mut pre = [0.5f32; 3];
    for (i, c) in coeffs.iter().enumerate().take(n) {
        for ch in 0..3 {
            pre[ch] += basis[i] * c[ch];
        }
    }
    let mut d_out = [0.0f32; 3];
    for ch in 0..3 {
        d_out[ch] = if pre[ch] > 0.0 { d_color[ch] } else { 0.0 };
    }

    let mut d_coeffs = vec![[0.0f32; 3]; n];
    for i in 0..n {
        for ch in 0..3 {
            d_coeffs[i][ch] = basis[i] * d_out[ch];
        }
    }

    let basis_grad = eval_basis_grad(degree, dir);
    let mut d_dir = Vec3::ZERO;
    for (i, c) in coeffs.iter().enumerate().take(n) {
        let w = c[0] * d_out[0] + c[1] * d_out[1] + c[2] * d_out[2];
        d_dir.x += w * basis_grad[i][0];
        d_dir.y += w * basis_grad[i][1];
        d_dir.z += w * basis_grad[i][2];
    }
    ColorBackward { d_coeffs, d_dir }
}

/// Propagates a gradient with respect to a *unit* direction back to the
/// unnormalized direction vector `v` (where `dir = v / |v|`).
pub fn normalize_backward(v: Vec3, d_unit: Vec3) -> Vec3 {
    let n = v.norm().max(1e-12);
    let u = v / n;
    let dot = u.dot(d_unit);
    (d_unit - u * dot) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_dir(seed: u64) -> Vec3 {
        // Simple deterministic pseudo-random unit vector.
        let a = (seed as f32 * 0.714_32).sin() * 3.0;
        let b = (seed as f32 * 1.933_17).cos() * 2.0;
        Vec3::new(a.sin() * b.cos(), a.sin() * b.sin(), a.cos()).normalized()
    }

    #[test]
    fn basis_dc_is_constant() {
        for s in 0..8 {
            let b = eval_basis(3, rand_dir(s));
            assert!((b[0] - SH_C0).abs() < 1e-7);
        }
    }

    #[test]
    fn num_coeffs_matches_degree() {
        assert_eq!(num_coeffs(0), 1);
        assert_eq!(num_coeffs(1), 4);
        assert_eq!(num_coeffs(2), 9);
        assert_eq!(num_coeffs(3), 16);
    }

    #[test]
    fn degree_zero_color_is_dc_only() {
        let coeffs = [[1.0f32, -0.5, 0.25]];
        let c = eval_color(0, Vec3::new(0.0, 0.0, 1.0), &coeffs);
        assert!((c[0] - (SH_C0 + 0.5)).abs() < 1e-6);
        assert!((c[1] - (0.5 - 0.5 * SH_C0)).abs() < 1e-6);
        assert!((c[2] - (0.5 + 0.25 * SH_C0)).abs() < 1e-6);
    }

    #[test]
    fn color_is_clamped_at_zero() {
        let coeffs = [[-10.0f32, -10.0, -10.0]];
        let c = eval_color(0, Vec3::new(0.0, 0.0, 1.0), &coeffs);
        assert_eq!(c, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn basis_gradient_matches_finite_difference() {
        let dir = rand_dir(3);
        let g = eval_basis_grad(3, dir);
        let eps = 1e-3;
        let axes = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        for (axis, &unit) in axes.iter().enumerate() {
            let dp = dir + unit * eps;
            let dm = dir - unit * eps;
            // Note: finite difference without re-normalizing, because the
            // analytic gradient is also w.r.t. the raw (unit) input.
            let bp = eval_basis(3, dp);
            let bm = eval_basis(3, dm);
            for i in 0..MAX_COEFFS {
                let fd = (bp[i] - bm[i]) / (2.0 * eps);
                assert!(
                    (fd - g[i][axis]).abs() < 1e-2 * (1.0 + fd.abs()),
                    "basis {i} axis {axis}: fd={fd} analytic={}",
                    g[i][axis]
                );
            }
        }
    }

    #[test]
    fn color_backward_coeff_gradient_matches_finite_difference() {
        let dir = rand_dir(11);
        let mut coeffs = vec![[0.0f32; 3]; 16];
        for (i, c) in coeffs.iter_mut().enumerate() {
            c[0] = (i as f32 * 0.37).sin() * 0.3;
            c[1] = (i as f32 * 0.91).cos() * 0.2;
            c[2] = (i as f32 * 1.53).sin() * 0.1;
        }
        let d_color = [1.0, -0.5, 0.25];
        let back = eval_color_backward(3, dir, &coeffs, d_color);
        let loss = |coeffs: &[[f32; 3]]| {
            let c = eval_color(3, dir, coeffs);
            c[0] * d_color[0] + c[1] * d_color[1] + c[2] * d_color[2]
        };
        let eps = 1e-3;
        for i in 0..16 {
            for ch in 0..3 {
                let orig = coeffs[i][ch];
                coeffs[i][ch] = orig + eps;
                let lp = loss(&coeffs);
                coeffs[i][ch] = orig - eps;
                let lm = loss(&coeffs);
                coeffs[i][ch] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - back.d_coeffs[i][ch]).abs() < 1e-2 * (1.0 + fd.abs()),
                    "coeff {i} ch {ch}"
                );
            }
        }
    }

    #[test]
    fn color_backward_dir_gradient_matches_finite_difference() {
        let dir = rand_dir(7);
        let mut coeffs = vec![[0.0f32; 3]; 16];
        for (i, c) in coeffs.iter_mut().enumerate() {
            c[0] = (i as f32 * 0.21).cos() * 0.4;
            c[1] = (i as f32 * 0.77).sin() * 0.3;
            c[2] = (i as f32 * 1.13).cos() * 0.2;
        }
        let d_color = [0.7, 0.3, -0.2];
        let back = eval_color_backward(3, dir, &coeffs, d_color);
        let loss = |d: Vec3| {
            let c = eval_color(3, d, &coeffs);
            c[0] * d_color[0] + c[1] * d_color[1] + c[2] * d_color[2]
        };
        let eps = 1e-3;
        let analytic = [back.d_dir.x, back.d_dir.y, back.d_dir.z];
        let axes = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        for (axis, &unit) in axes.iter().enumerate() {
            let dp = dir + unit * eps;
            let dm = dir - unit * eps;
            let fd = (loss(dp) - loss(dm)) / (2.0 * eps);
            assert!(
                (fd - analytic[axis]).abs() < 1e-2 * (1.0 + fd.abs()),
                "axis {axis}: fd={fd} analytic={}",
                analytic[axis]
            );
        }
    }

    #[test]
    fn clamped_channels_receive_no_gradient() {
        let coeffs = [[-10.0f32, 1.0, 1.0]];
        let back = eval_color_backward(0, Vec3::new(0.0, 0.0, 1.0), &coeffs, [1.0, 1.0, 1.0]);
        assert_eq!(back.d_coeffs[0][0], 0.0);
        assert!(back.d_coeffs[0][1] > 0.0);
    }

    #[test]
    fn normalize_backward_matches_finite_difference() {
        let v = Vec3::new(0.4, -1.2, 2.0);
        let d_unit = Vec3::new(0.3, 0.7, -0.5);
        let g = normalize_backward(v, d_unit);
        let loss = |v: Vec3| v.normalized().dot(d_unit);
        let eps = 1e-3;
        let analytic = [g.x, g.y, g.z];
        let axes = [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        for (axis, &unit) in axes.iter().enumerate() {
            let vp = v + unit * eps;
            let vm = v - unit * eps;
            let fd = (loss(vp) - loss(vm)) / (2.0 * eps);
            assert!((fd - analytic[axis]).abs() < 1e-3 * (1.0 + fd.abs()));
        }
    }
}
