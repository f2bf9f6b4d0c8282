//! Smoke benchmark: the micro-batching inference service, exported to
//! `BENCH_serve.json` for the CI perf trajectory.
//!
//! Three records, floored by `axsnn_bench::gates`:
//!
//! * `serve_throughput_c32` — 32 concurrent submitters drive the
//!   service; wall clock vs the same requests classified sequentially
//!   one-by-one. The fused batched path must reach **≥ 3×**
//!   (hardware-aware: skipped when the runner cannot drive the service
//!   workers). Served predictions are asserted bit-identical to the
//!   sequential baseline — the bench doubles as an equivalence smoke
//!   test.
//! * `serve_latency_steady` — open-loop Poisson traffic at ~25%
//!   utilization; the service-side p99 must stay within **64×** one
//!   direct classify, and the p50 within **1.2×** (hardware-aware like
//!   the throughput floor): workers never wait for a batch to fill, so
//!   a lone request pays only dispatch overhead.
//! * `serve_robust_chaos` — warm/burst/cooldown phases where the burst
//!   injects worker panics (poison pills every 7th request) and
//!   near-impossible deadlines: goodput must stay **≥ 0.5** of
//!   attempted submissions, with **zero** hung requests and post-chaos
//!   predictions still bit-identical to the direct path.
//!
//! Usage: `cargo run --release -p axsnn-bench --bin bench_serve
//! [out.json]` (default output `BENCH_serve.json`).
//! `AXSNN_BENCH_ITERS` scales the request counts (default 4).

use axsnn::core::encoding::Encoder;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::serve::{
    run_open_loop, InferenceService, Request, ServeConfig, TrafficConfig, TrafficPhase,
};
use axsnn::tensor::Tensor;
use axsnn_bench::json::{bench_row, write_bench_json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const INPUT: usize = 1568;
const HIDDEN: usize = 512;
const HIDDEN2: usize = 256;
const CLASSES: usize = 10;
const TIME_STEPS: usize = 16;
const CONCURRENCY: usize = 32;
const WORKERS: usize = 2;

fn iters() -> usize {
    std::env::var("AXSNN_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Same MNIST-scale MLP shape as `bench_batch`: the ≈3.9 MB weight set
/// exceeds L2, which is where fused batching earns its keep.
fn make_net() -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(42);
    let cfg = SnnConfig {
        threshold: 1.0,
        time_steps: TIME_STEPS,
        leak: 0.9,
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, INPUT, HIDDEN, &cfg),
            Layer::spiking_linear(&mut rng, HIDDEN, HIDDEN2, &cfg),
            Layer::output_linear(&mut rng, HIDDEN2, CLASSES),
        ],
        cfg,
    )
    .expect("valid net")
}

/// Sparse-regime inputs (~10% mean intensity), matching the paper's
/// operating point and the other fused-path benches.
fn make_images(count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            let data: Vec<f32> = (0..INPUT).map(|_| rng.gen::<f32>() * 0.2).collect();
            Tensor::from_vec(data, &[INPUT]).expect("image")
        })
        .collect()
}

fn service_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: 256,
        max_batch: CONCURRENCY,
        encoder: Encoder::Deterministic,
        ..ServeConfig::default()
    }
}

/// The reference path: one-at-a-time `classify` with the per-request
/// seed, exactly what the service must reproduce bit-for-bit.
fn sequential_predictions(net: &SpikingNetwork, requests: &[(Tensor, u64)]) -> Vec<usize> {
    let mut net = net.clone();
    requests
        .iter()
        .map(|(image, seed)| {
            let mut rng = StdRng::seed_from_u64(*seed);
            net.classify(image, Encoder::Deterministic, &mut rng)
                .expect("classify")
        })
        .collect()
}

/// Serves `requests` through `CONCURRENCY` submitter threads; returns
/// predictions in request order.
fn serve_concurrent(service: &InferenceService, requests: &[(Tensor, u64)]) -> Vec<usize> {
    let mut served = vec![usize::MAX; requests.len()];
    std::thread::scope(|scope| {
        let chunk = requests.len().div_ceil(CONCURRENCY);
        let mut rest = served.as_mut_slice();
        for reqs in requests.chunks(chunk) {
            let (head, tail) = rest.split_at_mut(reqs.len());
            rest = tail;
            scope.spawn(move || {
                let tickets: Vec<_> = reqs
                    .iter()
                    .map(|(image, seed)| {
                        service
                            .submit(Request::new(image.clone(), *seed))
                            .expect("capacity covers the run")
                    })
                    .collect();
                for (slot, ticket) in head.iter_mut().zip(tickets) {
                    *slot = ticket.wait().expect("served").prediction;
                }
            });
        }
    });
    served
}

/// Keeps CI logs readable: the chaos phase intentionally panics
/// workers, and each pill would otherwise dump a backtrace to stderr.
fn silence_poison_backtraces() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected poison") {
            default_hook(info);
        }
    }));
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    silence_poison_backtraces();
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let net = make_net();
    let images = make_images(CONCURRENCY);
    let n_requests = CONCURRENCY * iters();
    let requests: Vec<(Tensor, u64)> = (0..n_requests)
        .map(|i| (images[i % images.len()].clone(), 1_000 + i as u64))
        .collect();

    // --- Throughput: sequential baseline vs batched service. ---
    let mut sequential_ns = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        expected = sequential_predictions(&net, &requests);
        sequential_ns.push(start.elapsed().as_nanos() as f64);
    }
    let mut served_ns = Vec::new();
    let mut bit_identical = true;
    for _ in 0..3 {
        let service = InferenceService::start(net.clone(), images[0].clone(), service_config())
            .expect("start");
        let start = Instant::now();
        let served = serve_concurrent(&service, &requests);
        served_ns.push(start.elapsed().as_nanos() as f64);
        bit_identical &= served == expected;
        let tm = service.metrics();
        eprintln!(
            "  throughput run: {} batches, mean size {:.1}",
            tm.batches,
            tm.mean_batch_size()
        );
        service.shutdown();
    }
    let sequential = median(sequential_ns);
    let served = median(served_ns);
    let speedup = sequential / served.max(1.0);
    let direct_ns = sequential / n_requests as f64;
    assert!(
        bit_identical,
        "served predictions must be bit-identical to sequential classify"
    );

    // --- Latency under steady open-loop Poisson load (~25% util). ---
    // Most requests arrive alone, so the p50 reads what serving adds to
    // one direct classify.
    let steady_hz = (0.25e9 / direct_ns).clamp(20.0, 20_000.0);
    let service =
        InferenceService::start(net.clone(), images[0].clone(), service_config()).expect("start");
    let steady = TrafficConfig {
        phases: vec![TrafficPhase::steady("steady", steady_hz, 50 * iters())],
        seed: 11,
        harvest_timeout: Duration::from_secs(30),
    };
    let steady_report = run_open_loop(&service, &images, &steady);
    assert_eq!(steady_report.hung, 0, "steady traffic must never hang");
    let m = service.metrics();
    service.shutdown();
    let direct_us = direct_ns / 1e3;
    let p50_over_direct = m.p50_latency_us as f64 / direct_us.max(1e-9);
    let p99_over_direct = m.p99_latency_us as f64 / direct_us.max(1e-9);

    // --- Robustness: goodput under panics + deadline bursts. ---
    // The base rate is at least 200/s, so the 8x burst overloads the
    // service even on slow hardware.
    let rate_hz = (0.25e9 / direct_ns).clamp(200.0, 20_000.0);
    let chaos_service = InferenceService::start(net.clone(), images[0].clone(), {
        let mut c = service_config();
        c.queue_capacity = CONCURRENCY;
        c
    })
    .expect("start");
    let phase_n = 20 * iters();
    let tight_deadline = Duration::from_nanos((2.0 * direct_ns) as u64);
    let chaos = TrafficConfig {
        phases: vec![
            TrafficPhase::steady("warm", rate_hz, phase_n),
            TrafficPhase::burst("chaos_burst", rate_hz * 8.0, phase_n, 0.3)
                .with_deadline(tight_deadline)
                .with_poison_every(7),
            TrafficPhase::steady("cooldown", rate_hz, phase_n),
        ],
        seed: 13,
        harvest_timeout: Duration::from_secs(30),
    };
    let chaos_report = run_open_loop(&chaos_service, &images, &chaos);
    assert!(
        chaos_report.accounted(),
        "every attempt lands in one bucket: {chaos_report:?}"
    );
    // Post-chaos equivalence: the service (possibly respawned workers,
    // degraded-and-recovered ladder) still serves bit-exact predictions.
    let probe_requests: Vec<(Tensor, u64)> = requests.iter().take(16).cloned().collect();
    let post_chaos = serve_concurrent(&chaos_service, &probe_requests);
    let post_identical = post_chaos == expected[..16];
    let chaos_metrics = chaos_service.metrics();
    chaos_service.shutdown();

    let rows = vec![
        bench_row(&format!("serve_throughput_c{CONCURRENCY}"))
            .num("concurrency", CONCURRENCY as f64, 0)
            .num("requests", n_requests as f64, 0)
            .num("workers", WORKERS as f64, 0)
            .num("hardware_threads", hardware_threads as f64, 0)
            .num("sequential_ns", sequential, 0)
            .num("served_ns", served, 0)
            .num("speedup", speedup, 3),
        bench_row("serve_latency_steady")
            .num("rate_hz", steady_hz, 0)
            .num("requests", steady_report.attempted as f64, 0)
            .num("workers", WORKERS as f64, 0)
            .num("hardware_threads", hardware_threads as f64, 0)
            .num("direct_us", direct_us, 1)
            .num("p50_us", m.p50_latency_us as f64, 0)
            .num("p99_us", m.p99_latency_us as f64, 0)
            .num("p50_over_direct", p50_over_direct, 2)
            .num("p99_over_direct", p99_over_direct, 2),
        bench_row("serve_robust_chaos")
            .num("attempted", chaos_report.attempted as f64, 0)
            .num("completed", chaos_report.completed as f64, 0)
            .num("expired", chaos_report.expired as f64, 0)
            .num("panicked", chaos_report.panicked as f64, 0)
            .num("shed", chaos_report.shed as f64, 0)
            .num("rejected_full", chaos_report.rejected_full as f64, 0)
            .num("hung", chaos_report.hung as f64, 0)
            .num("worker_respawns", chaos_metrics.worker_respawns as f64, 0)
            .num(
                "level_transitions",
                chaos_metrics.total_transitions() as f64,
                0,
            )
            .num("goodput_fraction", chaos_report.goodput_fraction(), 3)
            .num("bit_identical", f64::from(u8::from(post_identical)), 0),
    ];
    println!(
        "serve c{CONCURRENCY}: sequential {:.2} ms, served {:.2} ms ({speedup:.2}x); \
         p50 {} us ({p50_over_direct:.2}x direct), p99 {} us ({p99_over_direct:.1}x direct); \
         chaos goodput {:.2} \
         ({} respawns, {} hung)",
        sequential / 1e6,
        served / 1e6,
        m.p50_latency_us,
        m.p99_latency_us,
        chaos_report.goodput_fraction(),
        chaos_metrics.worker_respawns,
        chaos_report.hung,
    );
    write_bench_json(&out, &rows).expect("write bench artifact");
    println!("wrote {out}");
}
