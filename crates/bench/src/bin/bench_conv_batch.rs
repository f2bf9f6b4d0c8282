//! Smoke benchmark: event-sorted batched conv vs the row-by-row fused
//! conv path, exported to `BENCH_conv_batch.json` for the CI perf
//! trajectory.
//!
//! Times, at batch 32 on the paper's MNIST conv architecture:
//!
//! * each conv layer's `[B, Cout·OH·OW]` current block — the
//!   event-sorted tile scatter
//!   ([`axsnn::tensor::batched::sparse_conv2d_batch_sorted_into`])
//!   against the row-by-row stencil sweep
//!   ([`axsnn::tensor::sparse::sparse_conv2d_into`]) the fused engine
//!   used before the execution plan could select kernels, plus the
//!   whole-stack aggregate (the acceptance headline);
//! * full `T`-step fused network inference under an event-sorted plan
//!   vs a row-by-row plan (selected through the serialized-plan
//!   snapshot path), as the end-to-end no-regression record;
//! * absolute µs per call of the dense conv kernels —
//!   [`axsnn::tensor::conv::conv2d`] and
//!   [`axsnn::tensor::conv::conv2d_backward`] on an analog input,
//!   [`axsnn::tensor::sparse::sparse_conv2d_backward`] on a 10%-dense
//!   event frame — at the paper's five conv layers (`conv_dense_*`,
//!   informational, no floor). These are the kernels under white-box
//!   BPTT crafting and ANN training.
//!
//! Every comparison is single-threaded A/B of bit-identical kernels —
//! the floors in `axsnn_bench::gates` don't need a hardware skip, but
//! records carry `hardware_threads` like the PR 4 floors for fleet
//! observability.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_conv_batch
//! [out.json]` (default output `BENCH_conv_batch.json`).
//! `AXSNN_BENCH_ITERS` scales the iteration counts (default 20).

use axsnn::core::fused::FrameTrain;
use axsnn::core::io::{restore_network, snapshot_network};
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::ConvBatchKernel;
use axsnn::tensor::batched::{sparse_conv2d_batch_sorted_into, SpikeMatrix};
use axsnn::tensor::conv::{conv2d, conv2d_backward, Conv2dSpec};
use axsnn::tensor::sparse::{sparse_conv2d_backward, sparse_conv2d_into, SpikeVector};
use axsnn::tensor::{init, Tensor};
use axsnn_bench::json::{bench_row, write_bench_json, BenchRow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 32;

struct Record {
    name: String,
    density: f32,
    row_by_row_ns: f64,
    sorted_ns: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.row_by_row_ns / self.sorted_ns.max(1.0)
    }
}

fn iters() -> u32 {
    std::env::var("AXSNN_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let n = iters();
    f(); // warmup
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn spike_frame(len: usize, density: f32, dims: &[usize], salt: u64) -> Tensor {
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let mut h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let unit = (h >> 40) as f32 / (1u64 << 24) as f32;
            if unit < density {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

/// The paper's three MNIST conv layers at 28×28 (the shapes the fused
/// conv path spends its time in after conversion).
fn paper_conv_layers() -> Vec<(&'static str, Conv2dSpec, (usize, usize))> {
    vec![
        (
            "l1_1to8_k5_28x28",
            Conv2dSpec {
                in_channels: 1,
                out_channels: 8,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            (28, 28),
        ),
        (
            "l2_8to16_k5_14x14",
            Conv2dSpec {
                in_channels: 8,
                out_channels: 16,
                kernel: 5,
                stride: 1,
                padding: 2,
            },
            (14, 14),
        ),
        (
            "l3_16to16_k3_7x7",
            Conv2dSpec {
                in_channels: 16,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            (7, 7),
        ),
    ]
}

/// Kernel-level A/B per paper conv layer, plus the stack aggregate.
fn kernel_records(records: &mut Vec<Record>, density: f32) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut stack_row = 0.0f64;
    let mut stack_sorted = 0.0f64;
    for (name, spec, (h, w)) in paper_conv_layers() {
        let len = spec.in_channels * h * w;
        let rows: Vec<SpikeVector> = (0..BATCH)
            .map(|b| {
                SpikeVector::from_dense(&spike_frame(len, density, &[len], b as u64 * 977))
                    .expect("binary frame")
            })
            .collect();
        let batch = SpikeMatrix::from_rows(&rows).unwrap();
        let weight = init::uniform(
            &mut rng,
            &[
                spec.out_channels,
                spec.in_channels,
                spec.kernel,
                spec.kernel,
            ],
            0.1,
        );
        let bias = init::uniform(&mut rng, &[spec.out_channels], 0.1);
        let (oh, ow) = spec.output_hw(h, w);
        let n = spec.out_channels * oh * ow;
        let mut block_a = vec![0.0f32; BATCH * n];
        let mut block_b = vec![0.0f32; BATCH * n];

        let row_by_row_ns = time_ns(|| {
            for (r, row) in rows.iter().enumerate() {
                sparse_conv2d_into(
                    black_box(row),
                    (h, w),
                    &weight,
                    &bias,
                    &spec,
                    &mut block_a[r * n..(r + 1) * n],
                )
                .unwrap();
            }
            black_box(&block_a);
        });
        let sorted_ns = time_ns(|| {
            sparse_conv2d_batch_sorted_into(
                black_box(&batch),
                (h, w),
                &weight,
                &bias,
                &spec,
                &mut block_b,
            )
            .unwrap();
            black_box(&block_b);
        });
        // Sanity: the two kernels are bit-identical.
        assert_eq!(block_a, block_b, "{name}: kernels diverged");
        stack_row += row_by_row_ns;
        stack_sorted += sorted_ns;
        records.push(Record {
            name: format!("conv_batch_sorted_{name}_B{BATCH}"),
            density,
            row_by_row_ns,
            sorted_ns,
        });
    }
    records.push(Record {
        name: format!("conv_batch_sorted_stack_B{BATCH}"),
        density,
        row_by_row_ns: stack_row,
        sorted_ns: stack_sorted,
    });
}

/// Times every kernel **interleaved** (alternating measurement blocks,
/// best-of-5 per kernel), so a burst of host noise lands on one block of
/// each rather than on one kernel's whole measurement.
fn time_interleaved(kernels: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    const REPS: usize = 5;
    let n = iters();
    for k in kernels.iter_mut() {
        k(); // warmup
    }
    let mut best = vec![f64::INFINITY; kernels.len()];
    for _ in 0..REPS {
        for (k, b) in kernels.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for _ in 0..n {
                k();
            }
            *b = b.min(start.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    best
}

/// Absolute per-call time of the three dense conv kernels at the paper's
/// five conv layers (MNIST 1→8 k5 28², 8→16 k5 14², 16→16 k3 7²; DVS
/// 2→8 k3 32², 8→16 k3 16²).
fn dense_kernel_rows(hardware_threads: usize) -> Vec<BenchRow> {
    const DENSITY: f32 = 0.10;
    let spec = |cin, cout, k| Conv2dSpec {
        in_channels: cin,
        out_channels: cout,
        kernel: k,
        stride: 1,
        padding: k / 2,
    };
    let mut shapes: Vec<(String, Conv2dSpec, usize)> = paper_conv_layers()
        .into_iter()
        .map(|(name, spec, (h, _))| (format!("mnist_{name}"), spec, h))
        .collect();
    shapes.push(("dvs_l1_2to8_k3_32x32".into(), spec(2, 8, 3), 32));
    shapes.push(("dvs_l2_8to16_k3_16x16".into(), spec(8, 16, 3), 16));

    let mut rng = StdRng::seed_from_u64(2);
    println!(
        "\n{:<36} {:>11} {:>14} {:>20}",
        "dense conv kernel (us/call)", "conv2d", "conv2d_bwd", "sparse_conv2d_bwd"
    );
    shapes
        .into_iter()
        .map(|(name, spec, hw)| {
            let (cin, cout, k) = (spec.in_channels, spec.out_channels, spec.kernel);
            let input = init::uniform(&mut rng, &[cin, hw, hw], 1.0);
            let weight = init::uniform(&mut rng, &[cout, cin, k, k], 0.1);
            let bias = init::uniform(&mut rng, &[cout], 0.1);
            let (oh, ow) = spec.output_hw(hw, hw);
            let grad_out = init::uniform(&mut rng, &[cout, oh, ow], 1.0);
            let len = cin * hw * hw;
            let events = SpikeVector::from_dense(&spike_frame(len, DENSITY, &[len], 17))
                .expect("binary frame");
            let ns = time_interleaved(&mut [
                &mut || {
                    black_box(conv2d(black_box(&input), &weight, &bias, &spec).unwrap());
                },
                &mut || {
                    black_box(
                        conv2d_backward(black_box(&input), &weight, &grad_out, &spec).unwrap(),
                    );
                },
                &mut || {
                    black_box(
                        sparse_conv2d_backward(
                            black_box(&events),
                            (hw, hw),
                            &weight,
                            &grad_out,
                            &spec,
                        )
                        .unwrap(),
                    );
                },
            ]);
            let name = format!("conv_dense_{name}");
            println!(
                "{name:<36} {:>11.1} {:>14.1} {:>20.1}",
                ns[0] / 1e3,
                ns[1] / 1e3,
                ns[2] / 1e3
            );
            bench_row(&name)
                .num("density", DENSITY as f64, 2)
                .num("hardware_threads", hardware_threads as f64, 0)
                .num("conv2d_us", ns[0] / 1e3, 2)
                .num("conv2d_backward_us", ns[1] / 1e3, 2)
                .num("sparse_conv2d_backward_us", ns[2] / 1e3, 2)
        })
        .collect()
}

/// The paper's MNIST conv architecture as a spiking network.
fn paper_conv_snn(cfg: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(5);
    let layers: Vec<Layer> = vec![
        Layer::spiking_conv2d(&mut rng, paper_conv_layers()[0].1, &cfg),
        Layer::max_pool2d(2),
        Layer::spiking_conv2d(&mut rng, paper_conv_layers()[1].1, &cfg),
        Layer::max_pool2d(2),
        Layer::spiking_conv2d(&mut rng, paper_conv_layers()[2].1, &cfg),
        Layer::flatten(),
        Layer::spiking_linear(&mut rng, 16 * 7 * 7, 64, &cfg),
        Layer::output_linear(&mut rng, 64, 10),
    ];
    SpikingNetwork::new(layers, cfg).expect("static topology")
}

/// Re-installs a forced batched-conv kernel through the serialized-plan
/// snapshot path (the same mechanism deployments use).
fn with_conv_kernel(net: &SpikingNetwork, kernel: ConvBatchKernel) -> SpikingNetwork {
    let mut snapshot = snapshot_network(net).expect("snapshot");
    for entry in &mut snapshot.plan {
        if entry.conv_batch.is_some() {
            entry.conv_batch = Some(kernel);
        }
    }
    restore_network(&snapshot).expect("restore")
}

/// End-to-end fused forward under the two plans.
fn network_record(records: &mut Vec<Record>, density: f32, time_steps: usize) {
    let cfg = SnnConfig {
        threshold: 0.8,
        time_steps,
        leak: 0.9,
    };
    let net = paper_conv_snn(cfg);
    let trains: Vec<FrameTrain> = (0..BATCH)
        .map(|b| {
            let frames: Vec<Tensor> = (0..time_steps)
                .map(|t| spike_frame(28 * 28, density, &[1, 28, 28], (b * 131 + t) as u64))
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect();
    let mut sorted_net = with_conv_kernel(&net, ConvBatchKernel::EventSorted);
    let mut row_net = with_conv_kernel(&net, ConvBatchKernel::RowByRow);
    let row_by_row_ns = time_ns(|| {
        black_box(row_net.forward_batch(black_box(&trains)).unwrap());
    });
    let sorted_ns = time_ns(|| {
        black_box(sorted_net.forward_batch(black_box(&trains)).unwrap());
    });
    let a = sorted_net.forward_batch(&trains).unwrap();
    let b = row_net.forward_batch(&trains).unwrap();
    assert_eq!(a.logits, b.logits, "plan choice changed results");
    records.push(Record {
        name: format!("convnet_plan_forward_T{time_steps}_28x28_B{BATCH}"),
        density,
        row_by_row_ns,
        sorted_ns,
    });
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_conv_batch.json".to_string());
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut records = Vec::new();
    for &density in &[0.05f32, 0.10] {
        kernel_records(&mut records, density);
    }
    network_record(&mut records, 0.10, 16);

    println!(
        "{:<38} {:>8} {:>16} {:>14} {:>9}",
        "benchmark", "density", "row-by-row ns", "sorted ns", "speedup"
    );
    let mut rows: Vec<BenchRow> = records
        .iter()
        .map(|r| {
            println!(
                "{:<38} {:>7.0}% {:>16.0} {:>14.0} {:>8.2}x",
                r.name,
                r.density * 100.0,
                r.row_by_row_ns,
                r.sorted_ns,
                r.speedup()
            );
            bench_row(&r.name)
                .num("density", r.density as f64, 2)
                .num("batch", BATCH as f64, 0)
                .num("hardware_threads", hardware_threads as f64, 0)
                .num("row_by_row_ns", r.row_by_row_ns, 0)
                .num("sorted_ns", r.sorted_ns, 0)
                .num("speedup", r.speedup(), 3)
        })
        .collect();
    rows.extend(dense_kernel_rows(hardware_threads));
    write_bench_json(&out_path, &rows).expect("write benchmark JSON");
    // Floors (stack ≥1.5×, per-layer and end-to-end ≥0.9×) live in the
    // consolidated gate (`bench_gate`, documented in
    // `axsnn_bench::gates`).
    println!("\nwrote {out_path} (floors enforced by bench_gate)");
}
