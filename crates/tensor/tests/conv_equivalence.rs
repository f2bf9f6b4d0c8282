//! Property tests pinning the row-contiguous dense conv kernels —
//! `conv2d`, `conv2d_backward` and the input/bias gradients of
//! `sparse_conv2d_backward` — **bit-for-bit** to the per-element scalar
//! loops they replaced (frozen in `conv_oracle/mod.rs`).
//!
//! Every comparison is `to_bits` equality, so signed zeros and NaN
//! payloads count. The inputs cover random shapes (stride 1–3,
//! `k = 1`, padding up to and past `k − 1`, inputs smaller than the
//! kernel), `±0.0` in inputs, weights, biases and gradients, exact-zero
//! gradients, a non-finite weight under a zero gradient, and the
//! paper's five conv layers.

use axsnn_tensor::conv::{conv2d, conv2d_backward, Conv2dGrads, Conv2dSpec};
use axsnn_tensor::sparse::{sparse_conv2d_backward, SpikeVector};
use axsnn_tensor::Tensor;
use proptest::prelude::*;

mod conv_oracle;

fn hash_unit(i: usize, salt: u64) -> f32 {
    let mut h = (i as u64)
        .wrapping_add(salt)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// `len` values in `[-2, 2)`, of which a `zeros` fraction is exactly
/// `+0.0` or `-0.0` (half each).
fn values(len: usize, zeros: f32, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let u = hash_unit(i, salt);
            if u < zeros / 2.0 {
                0.0
            } else if u < zeros {
                -0.0
            } else {
                4.0 * hash_unit(i, salt ^ 0x5eed) - 2.0
            }
        })
        .collect()
}

/// A binary frame: each cell spikes with probability `density`.
fn binary(len: usize, density: f32, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if hash_unit(i, salt ^ 0xb1) < density {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

fn assert_bits(actual: &Tensor, expected: &Tensor, what: &str) {
    assert_eq!(
        actual.shape().dims(),
        expected.shape().dims(),
        "{what}: shape"
    );
    for (i, (a, e)) in actual
        .as_slice()
        .iter()
        .zip(expected.as_slice())
        .enumerate()
    {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}[{i}]: {a} vs {e}");
    }
}

fn assert_grads(actual: &Conv2dGrads, expected: &Conv2dGrads, what: &str) {
    assert_bits(
        &actual.input,
        &expected.input,
        &format!("{what} input grad"),
    );
    assert_bits(
        &actual.weight,
        &expected.weight,
        &format!("{what} weight grad"),
    );
    assert_bits(&actual.bias, &expected.bias, &format!("{what} bias grad"));
}

/// Runs all three kernels against the oracle on one geometry: the dense
/// forward and backward on a signed-zero-laced analog input, the sparse
/// backward on a binary input of the given density.
fn check(spec: Conv2dSpec, (h, w): (usize, usize), zeros: f32, grad_zeros: f32, salt: u64) {
    let (cin, cout, k) = (spec.in_channels, spec.out_channels, spec.kernel);
    let (oh, ow) = spec.output_hw(h, w);
    let input = Tensor::from_vec(values(cin * h * w, zeros, salt), &[cin, h, w]).unwrap();
    let weight = Tensor::from_vec(
        values(cout * cin * k * k, zeros, salt ^ 0x11),
        &[cout, cin, k, k],
    )
    .unwrap();
    let bias = Tensor::from_vec(values(cout, zeros.max(0.5), salt ^ 0x22), &[cout]).unwrap();
    let grad_out = Tensor::from_vec(
        values(cout * oh * ow, grad_zeros, salt ^ 0x33),
        &[cout, oh, ow],
    )
    .unwrap();

    assert_bits(
        &conv2d(&input, &weight, &bias, &spec).unwrap(),
        &conv_oracle::conv2d(&input, &weight, &bias, &spec),
        "conv2d",
    );
    assert_grads(
        &conv2d_backward(&input, &weight, &grad_out, &spec).unwrap(),
        &conv_oracle::conv2d_backward(&input, &weight, &grad_out, &spec),
        "conv2d_backward",
    );

    let frame = Tensor::from_vec(binary(cin * h * w, zeros, salt), &[cin * h * w]).unwrap();
    let events = SpikeVector::from_dense(&frame).expect("binary frame");
    assert_grads(
        &sparse_conv2d_backward(&events, (h, w), &weight, &grad_out, &spec).unwrap(),
        &conv_oracle::sparse_conv2d_backward(&events, (h, w), &weight, &grad_out, &spec),
        "sparse_conv2d_backward",
    );
}

/// Fractions of exact zeros to lace the tensors with.
fn zero_rate() -> impl Strategy<Value = f32> {
    (0u8..5).prop_map(|i| [0.0, 0.1, 0.3, 0.7, 1.0][i as usize])
}

proptest! {
    /// Random geometries: `k = 1` up to 5, stride 1–3, padding up to
    /// `k + 1` (past `k − 1`, whole output rows read only padding), and
    /// inputs down to smaller than the kernel whenever the padding lets
    /// the kernel fit.
    #[test]
    fn random_shapes_bit_identical(
        cin in 1usize..4,
        cout in 1usize..10,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad_pick in 0usize..7,
        h_extra in 0usize..9,
        w_extra in 0usize..9,
        zeros in zero_rate(),
        grad_zeros in zero_rate(),
        salt in 0u64..1_000_000,
    ) {
        let padding = pad_pick % (kernel + 2);
        let min_side = kernel.saturating_sub(2 * padding).max(1);
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel, stride, padding };
        check(spec, (min_side + h_extra, min_side + w_extra), zeros, grad_zeros, salt);
    }
}

proptest! {
    // Each case runs five full-size layers through the scalar oracle.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paper's conv layers: MNIST 1→8 k5 28², 8→16 k5 14², 16→16 k3
    /// 7²; DVS 2→8 k3 32², 8→16 k3 16² (stride 1, same padding).
    #[test]
    fn paper_shapes_bit_identical(
        zeros in zero_rate(),
        grad_zeros in zero_rate(),
        salt in 0u64..1_000_000,
    ) {
        for (cin, cout, k, hw) in [
            (1, 8, 5, 28),
            (8, 16, 5, 14),
            (16, 16, 3, 7),
            (2, 8, 3, 32),
            (8, 16, 3, 16),
        ] {
            let spec = Conv2dSpec {
                in_channels: cin,
                out_channels: cout,
                kernel: k,
                stride: 1,
                padding: k / 2,
            };
            check(spec, (hw, hw), zeros.min(0.3), grad_zeros, salt);
        }
    }
}

/// A `-0.0` bias survives wherever every tap adds a `-0.0` product: the
/// forward must not add zero-padded taps (`-0.0 + 0.0 = +0.0`).
#[test]
fn negative_zero_bias_survives_padding() {
    let spec = Conv2dSpec {
        in_channels: 1,
        out_channels: 2,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let input = Tensor::from_vec(vec![-0.0; 16], &[1, 4, 4]).unwrap();
    let weight = Tensor::from_vec(vec![1.0; 18], &[2, 1, 3, 3]).unwrap();
    let bias = Tensor::from_vec(vec![-0.0, 0.0], &[2]).unwrap();
    let out = conv2d(&input, &weight, &bias, &spec).unwrap();
    assert_bits(
        &out,
        &conv_oracle::conv2d(&input, &weight, &bias, &spec),
        "conv2d",
    );
    assert!(out.as_slice()[..16]
        .iter()
        .all(|v| v.to_bits() == (-0.0f32).to_bits()));
}

/// Non-finite weights of an output channel whose gradient plane is all
/// zeros never reach the input gradient: the `g == 0` lane mask keeps
/// `0 · inf` and `0 · NaN` out of the sums, as the scalar skip did.
#[test]
fn non_finite_weight_under_zero_gradient() {
    let spec = Conv2dSpec {
        in_channels: 2,
        out_channels: 3,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let (h, w) = (6, 5);
    let input = Tensor::from_vec(values(2 * h * w, 0.2, 7), &[2, h, w]).unwrap();
    let mut wv = values(3 * 2 * 9, 0.2, 8);
    wv[18] = f32::INFINITY; // oc = 1
    wv[25] = f32::NEG_INFINITY;
    wv[30] = f32::NAN;
    let weight = Tensor::from_vec(wv, &[3, 2, 3, 3]).unwrap();
    let mut gv = values(3 * h * w, 0.3, 9);
    gv[h * w..2 * h * w]
        .iter_mut()
        .enumerate()
        .for_each(|(i, g)| {
            *g = if i % 2 == 0 { 0.0 } else { -0.0 };
        });
    let grad_out = Tensor::from_vec(gv, &[3, h, w]).unwrap();

    let dense = conv2d_backward(&input, &weight, &grad_out, &spec).unwrap();
    assert_grads(
        &dense,
        &conv_oracle::conv2d_backward(&input, &weight, &grad_out, &spec),
        "conv2d_backward",
    );
    assert!(dense.input.as_slice().iter().all(|v| v.is_finite()));

    let frame = Tensor::from_vec(binary(2 * h * w, 0.3, 10), &[2 * h * w]).unwrap();
    let events = SpikeVector::from_dense(&frame).unwrap();
    let sparse = sparse_conv2d_backward(&events, (h, w), &weight, &grad_out, &spec).unwrap();
    assert_grads(
        &sparse,
        &conv_oracle::sparse_conv2d_backward(&events, (h, w), &weight, &grad_out, &spec),
        "sparse_conv2d_backward",
    );
    assert!(sparse.input.as_slice().iter().all(|v| v.is_finite()));
}
