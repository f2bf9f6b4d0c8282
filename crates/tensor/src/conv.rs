//! 2-D convolution and pooling kernels (forward and backward).
//!
//! All kernels operate on single samples in `[C, H, W]` layout; batching is
//! handled by the layer abstractions in `axsnn-core`, which is the natural
//! granularity for a time-stepped SNN simulator (each time step processes
//! one spike frame).
//!
//! The dense convolution kernels are **row-contiguous**: every output
//! element, input-gradient element and weight-gradient element owns one
//! lane of a contiguous slice loop, and each lane keeps the exact scalar
//! accumulation chain of a one-accumulator-per-element loop, so the
//! loops auto-vectorize without reassociating anything:
//!
//! * **Forward** ([`conv2d`]) — each output plane starts at its bias and
//!   every `(ic, ky, kx)` tap, in ascending order, sweeps contiguous
//!   output rows with one broadcast weight. Each tap's valid `oy`/`ox`
//!   range is clipped to the unpadded input: padded taps are never
//!   added, because `-0.0 + 0.0·w` would turn a `-0.0` bias into `+0.0`.
//! * **Input gradient** ([`conv2d_backward`], shared with
//!   [`crate::sparse::sparse_conv2d_backward`]) — gather form: each input
//!   element sums its contributions with `oc` ascending, then `ky` and
//!   `kx` descending, which is exactly the order the `(oc, oy, ox)`
//!   scatter delivers them in.
//! * **Weight gradient** — lanes over output channels: `grad_out` is
//!   transposed to `[oy][ox][oc]`, and for every `(ic, ky, kx)` cell the
//!   `Cout` accumulators advance together over `(oy, ox)` ascending.
//! * **Zero skips** — an output position with `g == 0` contributes
//!   nothing (so a non-finite weight or input under a zero gradient
//!   stays out of the sums). The lanes express the skip as a mask that
//!   adds `+0.0` instead; every gradient accumulator starts at `+0.0`
//!   and a round-to-nearest sum starting there is never `-0.0`, so
//!   adding `+0.0` leaves it bit-for-bit unchanged.
//!
//! No multiply-add is contracted to an FMA. Every kernel covers every
//! stride with one implementation; the `conv_equivalence` suite in
//! `tests/` pins all three to the frozen per-element loops with `to_bits`
//! equality over random shapes, signed zeros and the paper's layers.

use crate::{Result, Tensor, TensorError};

/// Hyper-parameters of a 2-D convolution.
///
/// # Example
///
/// ```
/// use axsnn_tensor::conv::Conv2dSpec;
///
/// let spec = Conv2dSpec { in_channels: 1, out_channels: 8, kernel: 5, stride: 1, padding: 2 };
/// assert_eq!(spec.output_hw(28, 28), (28, 28));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied to both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Computes the output spatial size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// For each kernel offset `kk` along one axis, the output positions
    /// `o < out` whose tap `o·stride + kk - padding` lands inside the
    /// unpadded input `0..n` (empty when none does).
    fn tap_ranges(&self, n: usize, out: usize) -> Vec<std::ops::Range<usize>> {
        let (s, p) = (self.stride, self.padding);
        (0..self.kernel)
            .map(|kk| {
                let lo = p.saturating_sub(kk).div_ceil(s);
                let hi = if n + p > kk {
                    out.min((n - 1 + p - kk) / s + 1)
                } else {
                    0
                };
                lo.min(hi)..hi
            })
            .collect()
    }

    fn validate(&self, input: &Tensor, weight: &Tensor) -> Result<(usize, usize)> {
        if self.kernel == 0 || self.stride == 0 {
            return Err(TensorError::InvalidArgument {
                message: "conv2d kernel and stride must be non-zero".into(),
            });
        }
        let idims = input.shape().dims();
        if idims.len() != 3 {
            return Err(TensorError::RankMismatch {
                expected: 3,
                actual: idims.len(),
                op: "conv2d",
            });
        }
        if idims[0] != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: idims.to_vec(),
                rhs: vec![self.in_channels],
                op: "conv2d input channels",
            });
        }
        let wdims = weight.shape().dims();
        let expected = [
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
        ];
        if wdims != expected {
            return Err(TensorError::ShapeMismatch {
                lhs: wdims.to_vec(),
                rhs: expected.to_vec(),
                op: "conv2d weight",
            });
        }
        let (h, w) = (idims[1], idims[2]);
        if h + 2 * self.padding < self.kernel || w + 2 * self.padding < self.kernel {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "conv2d kernel {} larger than padded input {}x{}",
                    self.kernel,
                    h + 2 * self.padding,
                    w + 2 * self.padding
                ),
            });
        }
        Ok((h, w))
    }
}

/// Forward 2-D convolution: `input [Cin,H,W] → output [Cout,OH,OW]`.
///
/// # Errors
///
/// Returns an error when the input is not rank-3, channel counts or the
/// weight shape `[Cout,Cin,K,K]` disagree with `spec`, or the kernel does
/// not fit in the padded input.
///
/// # Example
///
/// ```
/// use axsnn_tensor::conv::{conv2d, Conv2dSpec};
/// use axsnn_tensor::Tensor;
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 0 };
/// let input = Tensor::ones(&[1, 5, 5]);
/// let weight = Tensor::ones(&[1, 1, 3, 3]);
/// let bias = Tensor::zeros(&[1]);
/// let out = conv2d(&input, &weight, &bias, &spec)?;
/// assert_eq!(out.shape().dims(), &[1, 3, 3]);
/// assert_eq!(out.at(&[0, 0, 0])?, 9.0);
/// # Ok(())
/// # }
/// ```
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Result<Tensor> {
    let (h, w) = spec.validate(input, weight)?;
    if bias.len() != spec.out_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: bias.shape().dims().to_vec(),
            rhs: vec![spec.out_channels],
            op: "conv2d bias",
        });
    }
    let (oh, ow) = spec.output_hw(h, w);
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let (oy_taps, ox_taps) = (spec.tap_ranges(h, oh), spec.tap_ranges(w, ow));
    let iv = input.as_slice();
    let mut out = vec![0.0f32; spec.out_channels * oh * ow];

    for ((plane, &b), wv_oc) in out
        .chunks_exact_mut(oh * ow)
        .zip(bias.as_slice())
        .zip(weight.as_slice().chunks_exact(spec.in_channels * k * k))
    {
        plane.fill(b);
        for (src, wv_ic) in iv.chunks_exact(h * w).zip(wv_oc.chunks_exact(k * k)) {
            for (ky, wrow) in wv_ic.chunks_exact(k).enumerate() {
                for oy in oy_taps[ky].clone() {
                    let irow = &src[(oy * s + ky - p) * w..];
                    let orow = &mut plane[oy * ow..(oy + 1) * ow];
                    for ((kx, &wt), ox) in wrow.iter().enumerate().zip(&ox_taps) {
                        if !ox.is_empty() {
                            let ix0 = ox.start * s + kx - p;
                            row_axpy(&mut orow[ox.clone()], &irow[ix0..], s, wt);
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[spec.out_channels, oh, ow])
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[Cin,H,W]`.
    pub input: Tensor,
    /// Gradient with respect to the weights, `[Cout,Cin,K,K]`.
    pub weight: Tensor,
    /// Gradient with respect to the bias, `[Cout]`.
    pub bias: Tensor,
}

/// Backward pass of [`conv2d`].
///
/// Given `grad_out = ∂L/∂output`, computes the three gradients of the
/// convolution with respect to input, weight and bias.
///
/// # Errors
///
/// Returns an error when `input`/`weight` disagree with `spec` or
/// `grad_out` does not have the forward output shape.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Conv2dGrads> {
    let (h, w) = spec.validate(input, weight)?;
    let (oh, ow) = spec.output_hw(h, w);
    let odims = grad_out.shape().dims();
    if odims != [spec.out_channels, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: odims.to_vec(),
            rhs: vec![spec.out_channels, oh, ow],
            op: "conv2d_backward grad_out",
        });
    }

    let gv = grad_out.as_slice();
    let k = spec.kernel;
    Ok(Conv2dGrads {
        input: Tensor::from_vec(
            input_grad(weight.as_slice(), gv, (h, w), spec),
            &[spec.in_channels, h, w],
        )?,
        weight: Tensor::from_vec(
            weight_grad(input.as_slice(), gv, (h, w), spec),
            &[spec.out_channels, spec.in_channels, k, k],
        )?,
        bias: Tensor::from_vec(bias_grad(gv, spec.out_channels), &[spec.out_channels])?,
    })
}

/// Input gradient of a convolution, `[Cin·H·W]`, in gather form.
///
/// Each output-gradient plane is copied, stride-dilated, into a
/// zero-framed plane of `(H+K−1) × (W+K−1)` cells, where gradient
/// `(oy, ox)` sits at row `oy·stride + K−1−padding` and column
/// `ox·stride + K−1−padding` (a gradient whose every tap reads padding
/// has no cell and reaches no input). Kernel tap `(ky, kx)` then reads that
/// plane at one constant offset, so it is a single contiguous sweep over
/// an input-gradient buffer with the same row width: the last `K−1`
/// cells of each buffer row are scratch and are dropped at the end.
/// A frame or dilation cell holds `+0.0`, which the `g == 0` mask turns
/// into an exact no-op, so each input element receives exactly the
/// scatter's contributions, with `oc` ascending, then `ky` and `kx`
/// descending — the order the `(oc, oy, ox)`-ascending scatter
/// delivers them in. Shared by [`conv2d_backward`] and
/// [`crate::sparse::sparse_conv2d_backward`]; the caller has validated
/// the shapes.
pub(crate) fn input_grad(
    wv: &[f32],
    gv: &[f32],
    (h, w): (usize, usize),
    spec: &Conv2dSpec,
) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w);
    let (k, s) = (spec.kernel, spec.stride);
    let (ph, pw) = (h + k - 1, w + k - 1);
    // Plane coordinate of output position `o` along an axis of `n`
    // cells; `None` for an output whose every tap reads padding (only
    // possible when `padding ≥ K`).
    let frame = |o: usize, n: usize| (o * s + k - 1).checked_sub(spec.padding).filter(|&c| c < n);
    let mut planes = vec![0.0f32; spec.out_channels * ph * pw];
    for (plane, gplane) in planes
        .chunks_exact_mut(ph * pw)
        .zip(gv.chunks_exact(oh * ow))
    {
        for (oy, grow) in gplane.chunks_exact(ow).enumerate() {
            let Some(r) = frame(oy, ph) else { continue };
            for (ox, &g) in grow.iter().enumerate() {
                if let Some(c) = frame(ox, pw) {
                    plane[r * pw + c] = g;
                }
            }
        }
    }
    let span = (h - 1) * pw + w;
    let mut wide = vec![0.0f32; spec.in_channels * h * pw];
    for (plane, wv_oc) in planes
        .chunks_exact(ph * pw)
        .zip(wv.chunks_exact(spec.in_channels * k * k))
    {
        for (dst, wv_ic) in wide.chunks_exact_mut(h * pw).zip(wv_oc.chunks_exact(k * k)) {
            for (ky, wrow) in wv_ic.chunks_exact(k).enumerate().rev() {
                for (kx, &wt) in wrow.iter().enumerate().rev() {
                    let src = &plane[(k - 1 - ky) * pw + (k - 1 - kx)..][..span];
                    row_axpy_masked(&mut dst[..span], src, wt);
                }
            }
        }
    }
    wide.chunks_exact(pw)
        .flat_map(|row| &row[..w])
        .copied()
        .collect()
}

/// Weight gradient of a dense convolution, `[Cout·Cin·K·K]`, with one
/// lane per output channel: `grad_out` is transposed to `[oy][ox][oc]`
/// (channels zero-padded to whole blocks of [`OC_LANES`]) so that, per
/// `(ic, ky, kx)` cell, a block of output channels advances its
/// accumulators together over the valid `(oy, ox)` positions in
/// ascending order, `g == 0` outputs masked out.
fn weight_grad(iv: &[f32], gv: &[f32], (h, w): (usize, usize), spec: &Conv2dSpec) -> Vec<f32> {
    let (oh, ow) = spec.output_hw(h, w);
    let (k, s, p) = (spec.kernel, spec.stride, spec.padding);
    let (oy_taps, ox_taps) = (spec.tap_ranges(h, oh), spec.tap_ranges(w, ow));
    let cout = spec.out_channels;
    let blocks = cout.div_ceil(OC_LANES);
    let cpad = blocks * OC_LANES;
    let mut gt = vec![0.0f32; oh * ow * cpad];
    for (oc, gplane) in gv.chunks_exact(oh * ow).enumerate() {
        for (pos, &g) in gplane.iter().enumerate() {
            gt[pos * cpad + oc] = g;
        }
    }
    let taps = spec.in_channels * k * k;
    let mut gw = vec![0.0f32; cout * taps];
    for (ic, src) in iv.chunks_exact(h * w).enumerate() {
        for (ky, oy_range) in oy_taps.iter().enumerate() {
            for (kx, ox_range) in ox_taps.iter().enumerate() {
                let cell = (ic * k + ky) * k + kx;
                for block in 0..blocks {
                    let mut acc = [0.0f32; OC_LANES];
                    for oy in oy_range.clone() {
                        let irow = &src[(oy * s + ky - p) * w..];
                        for ox in ox_range.clone() {
                            let x = irow[ox * s + kx - p];
                            let at = (oy * ow + ox) * cpad + block * OC_LANES;
                            let g: &[f32; OC_LANES] =
                                gt[at..at + OC_LANES].try_into().expect("lane block");
                            for (a, &g) in acc.iter_mut().zip(g) {
                                *a += masked_product(g, x);
                            }
                        }
                    }
                    for (oc, &a) in (block * OC_LANES..cout).zip(&acc) {
                        gw[oc * taps + cell] = a;
                    }
                }
            }
        }
    }
    gw
}

/// Output channels per weight-gradient lane block.
const OC_LANES: usize = 8;

/// Bias gradient: per output channel, the sum of its output gradients
/// in ascending position order. Summing the `g == 0` entries the scalar
/// loops skipped changes nothing: the sum starts at `+0.0` (a `fold`,
/// not `Iterator::sum`, which starts at `-0.0`), so adding `±0.0` is an
/// exact no-op.
pub(crate) fn bias_grad(gv: &[f32], out_channels: usize) -> Vec<f32> {
    if out_channels == 0 {
        return Vec::new();
    }
    gv.chunks_exact(gv.len() / out_channels)
        .map(|plane| plane.iter().fold(0.0, |acc, &g| acc + g))
        .collect()
}

/// `g · x` for a lane whose output gradient is nonzero, `+0.0` for a
/// masked (`g == 0`) lane — the lane form of the scalar loops' zero
/// skip. Adding `+0.0` leaves any accumulator that started at `+0.0`
/// unchanged bit for bit (a round-to-nearest sum from `+0.0` is never
/// `-0.0`), and `0 · inf` never reaches a sum.
#[inline(always)]
fn masked_product(g: f32, x: f32) -> f32 {
    if g != 0.0 {
        g * x
    } else {
        0.0
    }
}

/// `dst[i] += src[i·stride] · w` for every lane `i`: one output row of
/// a forward tap.
#[inline(always)]
fn row_axpy(dst: &mut [f32], src: &[f32], stride: usize, w: f32) {
    if stride == 1 {
        let src = &src[..dst.len()];
        for (d, &x) in dst.iter_mut().zip(src) {
            *d += x * w;
        }
    } else {
        for (d, &x) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d += x * w;
        }
    }
}

/// `dst[i] += masked_product(g[i], w)` for every lane `i`: one sweep of
/// an input-gradient tap.
#[inline(always)]
fn row_axpy_masked(dst: &mut [f32], g: &[f32], w: f32) {
    for (d, &g) in dst.iter_mut().zip(g) {
        *d += masked_product(g, w);
    }
}

/// Forward average pooling with a square `k × k` window and stride `k`.
///
/// # Errors
///
/// Returns an error for non-rank-3 inputs, `k == 0`, or spatial dimensions
/// not divisible by `k`.
///
/// # Example
///
/// ```
/// use axsnn_tensor::{conv::avg_pool2d, Tensor};
///
/// # fn main() -> axsnn_tensor::Result<()> {
/// let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 4])?;
/// let p = avg_pool2d(&x, 2)?;
/// assert_eq!(p.shape().dims(), &[1, 2, 2]);
/// assert_eq!(p.at(&[0, 0, 0])?, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn avg_pool2d(input: &Tensor, k: usize) -> Result<Tensor> {
    let (c, h, w) = pool_check(input, k)?;
    let (oh, ow) = (h / k, w / k);
    let iv = input.as_slice();
    let inv = 1.0 / (k * k) as f32;
    let mut out = vec![0.0f32; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ky in 0..k {
                    let irow = ch * h * w + (oy * k + ky) * w + ox * k;
                    for kx in 0..k {
                        acc += iv[irow + kx];
                    }
                }
                out[ch * oh * ow + oy * ow + ox] = acc * inv;
            }
        }
    }
    Tensor::from_vec(out, &[c, oh, ow])
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient evenly
/// over its `k × k` input window.
///
/// # Errors
///
/// Returns an error when `grad_out` is not the pooled shape of a valid
/// `[C, H, W]` input of size `input_dims`.
pub fn avg_pool2d_backward(grad_out: &Tensor, input_dims: &[usize], k: usize) -> Result<Tensor> {
    if input_dims.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input_dims.len(),
            op: "avg_pool2d_backward",
        });
    }
    let (c, h, w) = (input_dims[0], input_dims[1], input_dims[2]);
    if k == 0 || h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidArgument {
            message: format!("pool window {k} does not divide input {h}x{w}"),
        });
    }
    let (oh, ow) = (h / k, w / k);
    if grad_out.shape().dims() != [c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![c, oh, ow],
            op: "avg_pool2d_backward grad_out",
        });
    }
    let gv = grad_out.as_slice();
    let inv = 1.0 / (k * k) as f32;
    let mut gi = vec![0.0f32; c * h * w];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gv[ch * oh * ow + oy * ow + ox] * inv;
                for ky in 0..k {
                    let irow = ch * h * w + (oy * k + ky) * w + ox * k;
                    for kx in 0..k {
                        gi[irow + kx] += g;
                    }
                }
            }
        }
    }
    Tensor::from_vec(gi, input_dims)
}

/// Result of [`max_pool2d`]: the pooled tensor plus argmax indices for the
/// backward pass.
#[derive(Debug, Clone)]
pub struct MaxPool2dOutput {
    /// Pooled output `[C, H/k, W/k]`.
    pub output: Tensor,
    /// Flat input index of the winning element per output position.
    pub argmax: Vec<usize>,
}

/// Forward max pooling with a square `k × k` window and stride `k`.
///
/// # Errors
///
/// Same conditions as [`avg_pool2d`].
pub fn max_pool2d(input: &Tensor, k: usize) -> Result<MaxPool2dOutput> {
    let (c, h, w) = pool_check(input, k)?;
    let (oh, ow) = (h / k, w / k);
    let iv = input.as_slice();
    let mut out = vec![0.0f32; c * oh * ow];
    let mut arg = vec![0usize; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_i = 0usize;
                for ky in 0..k {
                    let irow = ch * h * w + (oy * k + ky) * w + ox * k;
                    for kx in 0..k {
                        let v = iv[irow + kx];
                        if v > best {
                            best = v;
                            best_i = irow + kx;
                        }
                    }
                }
                let o = ch * oh * ow + oy * ow + ox;
                out[o] = best;
                arg[o] = best_i;
            }
        }
    }
    Ok(MaxPool2dOutput {
        output: Tensor::from_vec(out, &[c, oh, ow])?,
        argmax: arg,
    })
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// input element that won the forward max.
///
/// # Errors
///
/// Returns an error when `grad_out` length disagrees with `argmax`.
pub fn max_pool2d_backward(
    grad_out: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_out.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_out.len(),
        });
    }
    let mut gi = Tensor::zeros(input_dims);
    let volume = gi.len();
    {
        let gis = gi.as_mut_slice();
        for (&idx, &g) in argmax.iter().zip(grad_out.as_slice()) {
            if idx >= volume {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![idx],
                    shape: input_dims.to_vec(),
                });
            }
            gis[idx] += g;
        }
    }
    Ok(gi)
}

fn pool_check(input: &Tensor, k: usize) -> Result<(usize, usize, usize)> {
    let dims = input.shape().dims();
    if dims.len() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: dims.len(),
            op: "pool2d",
        });
    }
    if k == 0 {
        return Err(TensorError::InvalidArgument {
            message: "pool window must be non-zero".into(),
        });
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    if h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidArgument {
            message: format!("pool window {k} does not divide input {h}x{w}"),
        });
    }
    Ok((c, h, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(cin: usize, cout: usize, k: usize, stride: usize, pad: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: cin,
            out_channels: cout,
            kernel: k,
            stride,
            padding: pad,
        }
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel of weight 1 reproduces the input.
        let s = spec(1, 1, 1, 1, 0);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[1, 3, 3]).unwrap();
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, &s).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_padding_preserves_size() {
        let s = spec(1, 2, 3, 1, 1);
        let x = Tensor::ones(&[1, 4, 4]);
        let w = Tensor::ones(&[2, 1, 3, 3]);
        let b = Tensor::from_vec(vec![0.0, 10.0], &[2]).unwrap();
        let y = conv2d(&x, &w, &b, &s).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4, 4]);
        // Center position sees all 9 ones; corner sees 4.
        assert_eq!(y.at(&[0, 1, 1]).unwrap(), 9.0);
        assert_eq!(y.at(&[0, 0, 0]).unwrap(), 4.0);
        assert_eq!(y.at(&[1, 0, 0]).unwrap(), 14.0);
    }

    #[test]
    fn conv_stride() {
        let s = spec(1, 1, 2, 2, 0);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 4]).unwrap();
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1]);
        let y = conv2d(&x, &w, &b, &s).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
        assert_eq!(y.at(&[0, 0, 0]).unwrap(), 0.0 + 1.0 + 4.0 + 5.0);
    }

    #[test]
    fn conv_rejects_bad_weight_shape() {
        let s = spec(1, 1, 3, 1, 0);
        let x = Tensor::ones(&[1, 5, 5]);
        let w = Tensor::ones(&[1, 1, 2, 2]);
        let b = Tensor::zeros(&[1]);
        assert!(conv2d(&x, &w, &b, &s).is_err());
    }

    /// Finite-difference check of the conv backward pass.
    #[test]
    fn conv_backward_matches_finite_difference() {
        let s = spec(2, 3, 3, 1, 1);
        let mut rng_state = 12345u64;
        let mut next = || {
            // Small deterministic LCG so the test needs no rand dependency.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let x = Tensor::from_vec((0..2 * 4 * 4).map(|_| next()).collect(), &[2, 4, 4]).unwrap();
        let w = Tensor::from_vec((0..3 * 2 * 9).map(|_| next()).collect(), &[3, 2, 3, 3]).unwrap();
        let b = Tensor::from_vec((0..3).map(|_| next()).collect(), &[3]).unwrap();

        // Loss = sum(output); grad_out = ones.
        let y = conv2d(&x, &w, &b, &s).unwrap();
        let go = Tensor::ones(y.shape().dims());
        let grads = conv2d_backward(&x, &w, &go, &s).unwrap();

        let eps = 1e-2f32;
        // Check a scattering of input coordinates.
        for &i in &[0usize, 5, 13, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = conv2d(&xp, &w, &b, &s).unwrap().sum();
            let fm = conv2d(&xm, &w, &b, &s).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads.input.as_slice()[i];
            assert!(
                (num - ana).abs() < 1e-2,
                "input grad mismatch at {i}: num {num} vs ana {ana}"
            );
        }
        // And weight coordinates.
        for &i in &[0usize, 7, 17, 29, 53] {
            let mut wp = w.clone();
            wp.as_mut_slice()[i] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[i] -= eps;
            let fp = conv2d(&x, &wp, &b, &s).unwrap().sum();
            let fm = conv2d(&x, &wm, &b, &s).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grads.weight.as_slice()[i];
            assert!(
                (num - ana).abs() < 1e-2,
                "weight grad mismatch at {i}: num {num} vs ana {ana}"
            );
        }
        // Bias gradient equals the number of output positions per channel.
        let (oh, ow) = s.output_hw(4, 4);
        for g in grads.bias.as_slice() {
            assert!((g - (oh * ow) as f32).abs() < 1e-4);
        }
    }

    #[test]
    fn avg_pool_and_backward() {
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 4]).unwrap();
        let p = avg_pool2d(&x, 2).unwrap();
        assert_eq!(p.as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        let go = Tensor::ones(&[1, 2, 2]);
        let gi = avg_pool2d_backward(&go, &[1, 4, 4], 2).unwrap();
        // Every input element receives 1/4 of its window's gradient.
        assert!(gi.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn avg_pool_rejects_indivisible() {
        let x = Tensor::zeros(&[1, 5, 4]);
        assert!(avg_pool2d(&x, 2).is_err());
    }

    #[test]
    fn max_pool_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let mp = max_pool2d(&x, 2).unwrap();
        assert_eq!(mp.output.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        let go = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let gi = max_pool2d_backward(&go, &mp.argmax, &[1, 4, 4]).unwrap();
        assert_eq!(gi.at(&[0, 1, 1]).unwrap(), 1.0); // 4.0 won
        assert_eq!(gi.at(&[0, 1, 3]).unwrap(), 2.0); // 8.0 won
        assert_eq!(gi.at(&[0, 3, 1]).unwrap(), 3.0); // 12.0 won
        assert_eq!(gi.at(&[0, 3, 3]).unwrap(), 4.0); // 16.0 won
        assert_eq!(gi.sum(), 10.0);
    }

    #[test]
    fn output_hw_formula() {
        let s = spec(1, 1, 5, 1, 0);
        assert_eq!(s.output_hw(28, 28), (24, 24));
        let s2 = spec(1, 1, 5, 1, 2);
        assert_eq!(s2.output_hw(28, 28), (28, 28));
    }
}
