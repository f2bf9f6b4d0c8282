//! Frozen reference loops for the dense conv kernels: the scalar
//! `conv2d`, `conv2d_backward` and `sparse_conv2d_backward` bodies as
//! they were before the row-contiguous rewrite, copied verbatim (only
//! the argument validation is dropped — callers pass valid shapes).
//!
//! This file is the one place the old loops live. It is a module, not a
//! test target: `tests/conv_equivalence.rs` and the `sparse` unit tests
//! include it and pin the shipped kernels to it with `to_bits` equality.
//! The including module must have `Tensor`, `Conv2dSpec`, `Conv2dGrads`
//! and `SpikeVector` in scope.

use super::{Conv2dGrads, Conv2dSpec, SpikeVector, Tensor};

/// Pre-rewrite `conv2d`: one accumulator per output
/// element, taps in `(ic, ky, kx)` ascending order, padded taps skipped.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (h, w) = (input.shape().dims()[1], input.shape().dims()[2]);
    let (oh, ow) = spec.output_hw(h, w);
    let iv = input.as_slice();
    let wv = weight.as_slice();
    let bv = bias.as_slice();
    let k = spec.kernel;
    let mut out = vec![0.0f32; spec.out_channels * oh * ow];

    for oc in 0..spec.out_channels {
        let wbase_oc = oc * spec.in_channels * k * k;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bv[oc];
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                for ic in 0..spec.in_channels {
                    let ibase = ic * h * w;
                    let wbase = wbase_oc + ic * k * k;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let irow = ibase + iy as usize * w;
                        let wrow = wbase + ky * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += iv[irow + ix as usize] * wv[wrow + kx];
                        }
                    }
                }
                out[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(out, &[spec.out_channels, oh, ow]).unwrap()
}

/// Pre-rewrite `conv2d_backward`: scatter over
/// `(oc, oy, ox)` ascending, skipping `g == 0` outputs.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let (h, w) = (input.shape().dims()[1], input.shape().dims()[2]);
    let (oh, ow) = spec.output_hw(h, w);

    let iv = input.as_slice();
    let wv = weight.as_slice();
    let gv = grad_out.as_slice();
    let k = spec.kernel;
    let mut gi = vec![0.0f32; spec.in_channels * h * w];
    let mut gw = vec![0.0f32; spec.out_channels * spec.in_channels * k * k];
    let mut gb = vec![0.0f32; spec.out_channels];

    for oc in 0..spec.out_channels {
        let wbase_oc = oc * spec.in_channels * k * k;
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gv[oc * oh * ow + oy * ow + ox];
                if g == 0.0 {
                    continue;
                }
                gb[oc] += g;
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                for ic in 0..spec.in_channels {
                    let ibase = ic * h * w;
                    let wbase = wbase_oc + ic * k * k;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let irow = ibase + iy as usize * w;
                        let wrow = wbase + ky * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let ii = irow + ix as usize;
                            gw[wrow + kx] += g * iv[ii];
                            gi[ii] += g * wv[wrow + kx];
                        }
                    }
                }
            }
        }
    }

    Conv2dGrads {
        input: Tensor::from_vec(gi, &[spec.in_channels, h, w]).unwrap(),
        weight: Tensor::from_vec(gw, &[spec.out_channels, spec.in_channels, k, k]).unwrap(),
        bias: Tensor::from_vec(gb, &[spec.out_channels]).unwrap(),
    }
}

/// Pre-rewrite `sparse_conv2d_backward`:
/// the dense scatter for the input and bias gradients, the event-driven
/// gather (4-wide `oc` unroll) for the weight gradient.
pub fn sparse_conv2d_backward(
    input: &SpikeVector,
    in_hw: (usize, usize),
    weight: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let (h, w) = in_hw;
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let ohw = oh * ow;
    let wstride = spec.in_channels * k * k;
    let wv = weight.as_slice();
    let gv = grad_out.as_slice();
    let mut gi = vec![0.0f32; spec.in_channels * h * w];
    let mut gw = vec![0.0f32; spec.out_channels * wstride];
    let mut gb = vec![0.0f32; spec.out_channels];

    // Input + bias gradients: the dense backward's exact loop (minus
    // the weight-gradient update), so both stay bit-identical to
    // `conv2d_backward`.
    for oc in 0..spec.out_channels {
        let wbase_oc = oc * wstride;
        for oy in 0..oh {
            for ox in 0..ow {
                let g = gv[oc * ohw + oy * ow + ox];
                if g == 0.0 {
                    continue;
                }
                gb[oc] += g;
                let iy0 = (oy * spec.stride) as isize - spec.padding as isize;
                let ix0 = (ox * spec.stride) as isize - spec.padding as isize;
                for ic in 0..spec.in_channels {
                    let ibase = ic * h * w;
                    let wbase = wbase_oc + ic * k * k;
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let irow = ibase + iy as usize * w;
                        let wrow = wbase + ky * k;
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            gi[irow + ix as usize] += g * wv[wrow + kx];
                        }
                    }
                }
            }
        }
    }

    // Weight gradient: event-driven, mirroring the scatter conv's
    // coordinate arithmetic in gather direction.
    for &flat in input.indices() {
        let flat = flat as usize;
        let ic = flat / (h * w);
        let rem = flat % (h * w);
        let iy = rem / w;
        let ix = rem % w;
        for ky in 0..k {
            let oy_num = iy + spec.padding;
            if oy_num < ky {
                break;
            }
            let oy_off = oy_num - ky;
            if !oy_off.is_multiple_of(spec.stride) {
                continue;
            }
            let oy = oy_off / spec.stride;
            if oy >= oh {
                continue;
            }
            for kx in 0..k {
                let ox_num = ix + spec.padding;
                if ox_num < kx {
                    break;
                }
                let ox_off = ox_num - kx;
                if !ox_off.is_multiple_of(spec.stride) {
                    continue;
                }
                let ox = ox_off / spec.stride;
                if ox >= ow {
                    continue;
                }
                let obase = oy * ow + ox;
                let wbase = ic * k * k + ky * k + kx;
                gather_stencil(&mut gw, gv, spec.out_channels, ohw, wstride, obase, wbase);
            }
        }
    }

    Conv2dGrads {
        input: Tensor::from_vec(gi, &[spec.in_channels, h, w]).unwrap(),
        weight: Tensor::from_vec(gw, &[spec.out_channels, spec.in_channels, k, k]).unwrap(),
        bias: Tensor::from_vec(gb, &[spec.out_channels]).unwrap(),
    }
}

fn gather_stencil(
    gw: &mut [f32],
    gv: &[f32],
    out_channels: usize,
    ohw: usize,
    wstride: usize,
    obase: usize,
    wbase: usize,
) {
    let mut oc = 0usize;
    while oc + 4 <= out_channels {
        gw[oc * wstride + wbase] += gv[oc * ohw + obase];
        gw[(oc + 1) * wstride + wbase] += gv[(oc + 1) * ohw + obase];
        gw[(oc + 2) * wstride + wbase] += gv[(oc + 2) * ohw + obase];
        gw[(oc + 3) * wstride + wbase] += gv[(oc + 3) * ohw + obase];
        oc += 4;
    }
    while oc < out_channels {
        gw[oc * wstride + wbase] += gv[oc * ohw + obase];
        oc += 1;
    }
}
