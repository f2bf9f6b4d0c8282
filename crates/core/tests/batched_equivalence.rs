//! Property tests pinning the fused batched forward engine to the
//! per-sample path **bit for bit**: for random layer shapes, batch
//! sizes 1–64, spike densities 0–100% (including analog inputs) and
//! every thread count, `forward_batch` logits must equal per-sample
//! `forward` logits exactly — not approximately. The fused engine is
//! the per-sample engine re-scheduled, and these tests are the contract
//! that keeps it that way.

use axsnn_core::encoding::Encoder;
use axsnn_core::fused::FrameTrain;
use axsnn_core::layer::Layer;
use axsnn_core::network::{SnnConfig, SpikingNetwork};
use axsnn_tensor::conv::Conv2dSpec;
use axsnn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(threshold: f32, time_steps: usize) -> SnnConfig {
    SnnConfig {
        threshold,
        time_steps,
        leak: 0.9,
    }
}

fn mlp(seed: u64, inputs: usize, hidden: usize, classes: usize, c: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, inputs, hidden, &c),
            Layer::spiking_linear(&mut rng, hidden, hidden, &c),
            Layer::output_linear(&mut rng, hidden, classes),
        ],
        c,
    )
    .unwrap()
}

/// Conv/pool/linear stack on an 8×8 input; `max_pool` picks the
/// sparse-eligible (max) or de-binarizing (avg) pooling variant.
fn conv_net(seed: u64, c: SnnConfig, max_pool: bool) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = if max_pool {
        Layer::max_pool2d(2)
    } else {
        Layer::avg_pool2d(2)
    };
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(
                &mut rng,
                Conv2dSpec {
                    in_channels: 1,
                    out_channels: 3,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                &c,
            ),
            pool,
            Layer::flatten(),
            Layer::spiking_linear(&mut rng, 3 * 4 * 4, 12, &c),
            Layer::output_linear(&mut rng, 12, 4),
        ],
        c,
    )
    .unwrap()
}

/// B binary frame trains of `len`-element frames at roughly `density`.
fn spike_trains(batch: usize, len: usize, t: usize, density: f32, seed: u64) -> Vec<FrameTrain> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch)
        .map(|_| {
            let frames: Vec<Tensor> = (0..t)
                .map(|_| {
                    let data: Vec<f32> = (0..len)
                        .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                        .collect();
                    Tensor::from_vec(data, &[len]).unwrap()
                })
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect()
}

/// Asserts fused logits equal per-sample logits bit for bit, and that
/// batched spike stats equal the per-sample sums.
fn assert_bitwise_equivalent(net: &SpikingNetwork, trains: &[FrameTrain]) {
    let mut fused_net = net.clone();
    let out = fused_net.forward_batch(trains).unwrap();
    let classes = out.logits.shape().dims()[1];
    let mut reference = net.clone();
    let mut rng = StdRng::seed_from_u64(0);
    let mut stat_sums = vec![0.0f32; out.spikes_per_layer.len()];
    for (r, train) in trains.iter().enumerate() {
        let frames = train.to_frames().unwrap();
        let per_sample = reference.forward(&frames, false, &mut rng).unwrap();
        assert_eq!(
            &out.logits.as_slice()[r * classes..(r + 1) * classes],
            per_sample.logits.as_slice(),
            "row {r} logits diverged from per-sample forward"
        );
        for (s, &v) in stat_sums.iter_mut().zip(&per_sample.stats.spikes_per_layer) {
            *s += v;
        }
    }
    assert_eq!(out.spikes_per_layer, stat_sums, "spike stats diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused ≡ per-sample through an MLP across random widths, batch
    /// sizes 1–64, time steps and densities 0–100%.
    #[test]
    fn mlp_forward_batch_bitwise_equals_per_sample(
        batch in 1usize..65,
        inputs in 1usize..24,
        hidden in 1usize..20,
        t in 1usize..6,
        density_k in 0u8..6,
        vth in 1u8..4,
        seed in 0u64..500,
    ) {
        let density = [0.0, 0.05, 0.1, 0.25, 0.6, 1.0][density_k as usize];
        let c = cfg(vth as f32 * 0.3, t);
        let net = mlp(seed, inputs, hidden, 3, c);
        let trains = spike_trains(batch, inputs, t, density, seed ^ 0x5eed);
        assert_bitwise_equivalent(&net, &trains);
    }

    /// Fused ≡ per-sample through conv/pool stacks — both the
    /// sparse-eligible max-pool variant and the de-binarizing avg-pool
    /// variant (which exercises the dense-fallback path mid-network).
    #[test]
    fn conv_forward_batch_bitwise_equals_per_sample(
        batch in 1usize..13,
        t in 1usize..5,
        density_k in 0u8..5,
        max_pool_k in 0u8..2,
        seed in 0u64..500,
    ) {
        let density = [0.0, 0.05, 0.15, 0.4, 1.0][density_k as usize];
        let c = cfg(0.6, t);
        let max_pool = max_pool_k == 1;
        let net = conv_net(seed, c, max_pool);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let trains: Vec<FrameTrain> = (0..batch)
            .map(|_| {
                let frames: Vec<Tensor> = (0..t)
                    .map(|_| {
                        let data: Vec<f32> = (0..64)
                            .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                            .collect();
                        Tensor::from_vec(data, &[1, 8, 8]).unwrap()
                    })
                    .collect();
                FrameTrain::from_frames(&frames).unwrap()
            })
            .collect();
        assert_bitwise_equivalent(&net, &trains);
    }

    /// Analog (direct-current) inputs — every row takes the batched
    /// dense fallback — still match the per-sample dense path bitwise.
    /// Every fourth image is black, so its frames encode as (empty)
    /// spike frames and the batch mixes binary and analog rows.
    #[test]
    fn analog_forward_batch_bitwise_equals_per_sample(
        batch in 1usize..17,
        inputs in 1usize..16,
        t in 1usize..5,
        seed in 0u64..500,
    ) {
        let c = cfg(0.5, t);
        let net = mlp(seed, inputs, 10, 3, c);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let trains: Vec<FrameTrain> = (0..batch)
            .map(|i| {
                let image: Vec<f32> = (0..inputs)
                    .map(|_| if i % 4 == 3 { 0.0 } else { rng.gen::<f32>() })
                    .collect();
                let image = Tensor::from_vec(image, &[inputs]).unwrap();
                let mut erng = StdRng::seed_from_u64(0);
                FrameTrain::encode(&image, Encoder::DirectCurrent, t, &mut erng).unwrap()
            })
            .collect();
        assert_bitwise_equivalent(&net, &trains);
    }

    /// Sharded classification is invariant to thread count and fused
    /// batch size, and equals single-shot fused classification.
    #[test]
    fn sharding_invariant_to_threads_and_batch_size(
        samples in 1usize..40,
        threads in 1usize..8,
        shard in 1usize..40,
        seed in 0u64..200,
    ) {
        let c = cfg(0.5, 4);
        let net = mlp(seed, 10, 14, 4, c);
        let trains = spike_trains(samples, 10, 4, 0.2, seed ^ 0x77);
        let mut whole_net = net.clone();
        let whole = whole_net.classify_batch_fused(&trains).unwrap();
        let sharded = net.classify_trains_sharded(&trains, threads, shard).unwrap();
        prop_assert_eq!(&whole, &sharded);
        let single_thread = net.classify_trains_sharded(&trains, 1, shard).unwrap();
        prop_assert_eq!(&whole, &single_thread);
    }
}

/// The fused image path (`classify_batch` / `evaluate_batch`) matches
/// sequential per-sample `classify` under the shared seeding convention
/// for every encoder, including the stochastic Poisson code.
#[test]
fn classify_batch_matches_per_sample_for_all_encoders() {
    use axsnn_core::batch::sample_seed;
    let c = cfg(0.5, 6);
    let net = mlp(3, 9, 12, 3, c);
    let mut rng = StdRng::seed_from_u64(11);
    let images: Vec<Tensor> = (0..37)
        .map(|_| {
            let data: Vec<f32> = (0..9).map(|_| rng.gen::<f32>()).collect();
            Tensor::from_vec(data, &[9]).unwrap()
        })
        .collect();
    for encoder in [
        Encoder::Poisson,
        Encoder::Deterministic,
        Encoder::DirectCurrent,
    ] {
        let fused = net.classify_batch(&images, encoder, 5, 4).unwrap();
        let mut reference = net.clone();
        for (i, image) in images.iter().enumerate() {
            let mut srng = StdRng::seed_from_u64(sample_seed(5, i));
            let expected = reference.classify(image, encoder, &mut srng).unwrap();
            assert_eq!(fused[i], expected, "{encoder:?} sample {i}");
        }
    }
}

/// Dense-fallback counters make the avg-pool de-binarization
/// observable, and the eligibility audit predicts it statically.
#[test]
fn avg_pool_degradation_is_observable() {
    let c = cfg(0.6, 4);
    let mut avg_net = conv_net(1, c, false);
    let mut max_net = conv_net(1, c, true);

    let avg_report = avg_net.sparse_eligible();
    assert!(!avg_report.fully_eligible, "avg pool must flag the stack");
    assert_eq!(avg_report.first_debinarizing, Some(1));
    let max_report = max_net.sparse_eligible();
    assert!(max_report.fully_eligible, "max pool keeps frames binary");
    assert_eq!(max_report.first_debinarizing, None);

    // Low-density spike input: the avg-pool net must rack up dense
    // fallbacks downstream of the pool; the max-pool net must not.
    let trains = spike_trains(8, 64, 4, 0.05, 9)
        .into_iter()
        .map(|t| {
            let frames: Vec<Tensor> = t
                .to_frames()
                .unwrap()
                .iter()
                .map(|f| f.reshape(&[1, 8, 8]).unwrap())
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect::<Vec<_>>();
    avg_net.forward_batch(&trains).unwrap();
    max_net.forward_batch(&trains).unwrap();
    let avg_counts = avg_net.dense_fallback_counts();
    let max_counts = max_net.dense_fallback_counts();
    // The layer right after the pool sees de-binarized fractions in the
    // avg net, so it must fall back; the max net's conv layer sees the
    // raw 5% binary frames and must never fall back. (The max net may
    // still fall back *by density* deeper in the stack — that is the
    // gate working, not a degradation — so compare totals rather than
    // demanding zero.)
    assert!(
        avg_counts[3] > 0,
        "post-avg-pool linear layer must be counted: {avg_counts:?}"
    );
    assert_eq!(max_counts[0], 0, "binary conv input never falls back");
    assert!(
        avg_net.total_dense_fallbacks() > max_net.total_dense_fallbacks(),
        "avg pool must degrade more than max pool: {avg_counts:?} vs {max_counts:?}"
    );

    // The counters must survive the sharded evaluators, which hand
    // each worker a *clone* of the network: a fresh avg-pool net
    // classified through classify_trains_sharded must still show its
    // fallbacks on the instance the caller holds.
    let sharded_net = conv_net(1, c, false);
    assert_eq!(sharded_net.total_dense_fallbacks(), 0);
    sharded_net.classify_trains_sharded(&trains, 4, 2).unwrap();
    assert!(
        sharded_net.total_dense_fallbacks() > 0,
        "worker-clone fallbacks must aggregate into the caller's instance"
    );
}

/// Runs `trains` through the fused engine and, sample by sample, through
/// the per-sample engine, on two copies of the network built by `build`
/// (built twice because clones share their fallback counters), both
/// under `threshold` when given. Asserts, layer by layer, the same
/// logits (`to_bits`), spike totals and dense-fallback counts, and
/// returns the fallback counts.
fn assert_layerwise_equivalent(
    build: &dyn Fn() -> SpikingNetwork,
    threshold: Option<f32>,
    trains: &[FrameTrain],
) -> Vec<u64> {
    let (mut fused, mut reference) = (build(), build());
    if let Some(th) = threshold {
        fused.set_sparse_threshold(th);
        reference.set_sparse_threshold(th);
    }
    let out = fused.forward_batch(trains).unwrap();
    let classes = out.logits.shape().dims()[1];
    let mut rng = StdRng::seed_from_u64(0);
    let mut spikes = vec![0.0f32; out.spikes_per_layer.len()];
    for (r, train) in trains.iter().enumerate() {
        let per_sample = reference
            .forward(&train.to_frames().unwrap(), false, &mut rng)
            .unwrap();
        let fused_row = &out.logits.as_slice()[r * classes..(r + 1) * classes];
        for (c, (a, e)) in fused_row
            .iter()
            .zip(per_sample.logits.as_slice())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "threshold {threshold:?} row {r} class {c}: {a} vs {e}"
            );
        }
        for (s, &v) in spikes.iter_mut().zip(&per_sample.stats.spikes_per_layer) {
            *s += v;
        }
    }
    assert_eq!(out.spikes_per_layer, spikes, "threshold {threshold:?}");
    let counts = fused.dense_fallback_counts();
    assert_eq!(
        counts,
        reference.dense_fallback_counts(),
        "threshold {threshold:?}: per-layer dense fallbacks"
    );
    counts
}

/// Binary `[c, h, w]` frame trains whose per-sample density varies
/// across the batch: every third sample is empty, the rest range from
/// sparse to `max_density`.
fn graded_trains(
    batch: usize,
    dims: [usize; 3],
    t: usize,
    max_density: f32,
    seed: u64,
) -> Vec<FrameTrain> {
    let len: usize = dims.iter().product();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch)
        .map(|r| {
            let density = if r % 3 == 0 {
                0.0
            } else {
                max_density * (r % 7 + 1) as f32 / 7.0
            };
            let frames: Vec<Tensor> = (0..t)
                .map(|_| {
                    let data: Vec<f32> = (0..len)
                        .map(|_| if rng.gen::<f32>() < density { 1.0 } else { 0.0 })
                        .collect();
                    Tensor::from_vec(data, &dims).unwrap()
                })
                .collect();
            FrameTrain::from_frames(&frames).unwrap()
        })
        .collect()
}

fn conv_spec(cin: usize, cout: usize, kernel: usize) -> Conv2dSpec {
    Conv2dSpec {
        in_channels: cin,
        out_channels: cout,
        kernel,
        stride: 1,
        padding: kernel / 2,
    }
}

/// Two conv/max-pool stages on 12×12, then a spiking linear layer: every
/// plane between the layers is an event plane.
fn deep_conv_net(seed: u64, c: SnnConfig) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikingNetwork::new(
        vec![
            Layer::spiking_conv2d(&mut rng, conv_spec(1, 4, 3), &c),
            Layer::max_pool2d(2),
            Layer::spiking_conv2d(&mut rng, conv_spec(4, 6, 3), &c),
            Layer::max_pool2d(2),
            Layer::flatten(),
            Layer::dropout(0.3),
            Layer::spiking_linear(&mut rng, 6 * 3 * 3, 16, &c),
            Layer::output_linear(&mut rng, 16, 4),
        ],
        c,
    )
    .unwrap()
}

/// Thresholds low enough to decline *some* rows of the event planes
/// mid-network (0.02, 0.05), the default gate, a wide-open gate and two
/// disarmed gates (0.0 and NaN), at batch sizes 1, 2, 7 and 32 with
/// empty rows: the fused engine matches the per-sample engine on every
/// layer's logits, spikes and dense-fallback counts.
#[test]
fn event_planes_match_per_sample_layer_by_layer_under_every_gate() {
    let c = cfg(0.45, 3);
    let layers = 8usize;
    let mut mixed_mid_network = [false; 2];
    for batch in [1usize, 2, 7, 32] {
        let trains = graded_trains(batch, [1, 12, 12], 3, 0.35, batch as u64);
        for (k, threshold) in [
            Some(0.02),
            Some(0.05),
            None,
            Some(1.0),
            Some(0.0),
            Some(f32::NAN),
        ]
        .into_iter()
        .enumerate()
        {
            let counts = assert_layerwise_equivalent(&|| deep_conv_net(17, c), threshold, &trains);
            assert_eq!(counts.len(), layers);
            if threshold.is_some_and(|th| th.is_nan() || th <= 0.0) {
                assert!(counts.iter().all(|&n| n == 0), "disarmed gates never count");
            }
            // Some but not all rows of an event plane declined past the
            // first layer: the masked-matrix path ran.
            let rows = (batch * 3) as u64;
            if k < 2 && counts[1..].iter().any(|&n| n > 0 && n < rows) {
                mixed_mid_network[k] = true;
            }
        }
    }
    assert_eq!(
        mixed_mid_network,
        [true, true],
        "thresholds 0.02 and 0.05 must split an event plane mid-network"
    );
}

/// A max pool straight on dense binary input: windows are hit by 0–4
/// spikes, and rows above the pool's density gate are counted once each
/// while still pooling to the same events.
#[test]
fn event_max_pool_dedupes_windows_hit_by_several_spikes() {
    let c = cfg(0.5, 2);
    let build = || {
        let mut rng = StdRng::seed_from_u64(5);
        SpikingNetwork::new(
            vec![
                Layer::max_pool2d(2),
                Layer::spiking_conv2d(&mut rng, conv_spec(2, 3, 3), &c),
                Layer::max_pool2d(2),
                Layer::flatten(),
                Layer::output_linear(&mut rng, 3 * 2 * 2, 3),
            ],
            c,
        )
        .unwrap()
    };
    let trains = graded_trains(7, [2, 8, 8], 2, 0.9, 3);
    // Every hit count from 2 to 4 occurs in some input window.
    let mut hits_seen = [false; 5];
    for train in &trains {
        for frame in train.to_frames().unwrap() {
            let v = frame.as_slice();
            for ch in 0..2 {
                for oy in 0..4 {
                    for ox in 0..4 {
                        let at = |y: usize, x: usize| v[ch * 64 + (2 * oy + y) * 8 + 2 * ox + x];
                        let hits = at(0, 0) + at(0, 1) + at(1, 0) + at(1, 1);
                        hits_seen[hits as usize] = true;
                    }
                }
            }
        }
    }
    assert_eq!(
        hits_seen[2..],
        [true; 3],
        "windows hit by 2, 3 and 4 spikes"
    );
    for threshold in [None, Some(0.05), Some(0.0)] {
        let counts = assert_layerwise_equivalent(&build, threshold, &trains);
        if threshold.is_none() {
            assert!(counts[0] > 0, "dense rows decline the first pool's gate");
        }
    }
}

/// The paper's conv shape: k5 convs on 28×28 with two max pools, T = 4.
#[test]
fn paper_shape_convnet_matches_per_sample() {
    let c = cfg(0.5, 4);
    let build = || {
        let mut rng = StdRng::seed_from_u64(23);
        SpikingNetwork::new(
            vec![
                Layer::spiking_conv2d(&mut rng, conv_spec(1, 8, 5), &c),
                Layer::max_pool2d(2),
                Layer::spiking_conv2d(&mut rng, conv_spec(8, 16, 5), &c),
                Layer::max_pool2d(2),
                Layer::flatten(),
                Layer::spiking_linear(&mut rng, 16 * 7 * 7, 32, &c),
                Layer::output_linear(&mut rng, 32, 10),
            ],
            c,
        )
        .unwrap()
    };
    let trains = graded_trains(5, [1, 28, 28], 4, 0.3, 28);
    for threshold in [None, Some(0.05)] {
        assert_layerwise_equivalent(&build, threshold, &trains);
    }
}

/// The density gate runs once per row per layer per step: a linear
/// layer over a batch mixing admitted and declined rows counts exactly
/// one fallback per declined row and step.
#[test]
fn each_declined_row_counts_exactly_once() {
    let c = cfg(0.5, 3);
    let mut rng = StdRng::seed_from_u64(2);
    let mut net = SpikingNetwork::new(
        vec![
            Layer::spiking_linear(&mut rng, 20, 8, &c),
            Layer::output_linear(&mut rng, 8, 2),
        ],
        c,
    )
    .unwrap();
    // 20-element rows with 0, 3, 5, 6 and 20 spikes: at the default 0.25
    // gate (cap 5 spikes) the last two decline.
    let trains: Vec<FrameTrain> = [0usize, 3, 5, 6, 20]
        .iter()
        .map(|&nnz| {
            let data: Vec<f32> = (0..20).map(|i| if i < nnz { 1.0 } else { 0.0 }).collect();
            FrameTrain::from_frames(&vec![Tensor::from_vec(data, &[20]).unwrap(); 3]).unwrap()
        })
        .collect();
    net.forward_batch(&trains).unwrap();
    assert_eq!(net.dense_fallback_counts()[0], 2 * 3);
}

/// Spike totals stay exact past 2^24: one always-firing linear layer of
/// 3 × 1367 neurons over 4100 steps emits 16,814,100 spikes, an even
/// count above 2^24 that f32 represents exactly. A running f32 sum of
/// the per-step totals (4101, odd) rounds each step past 2^24 and ends
/// 8 short.
#[test]
fn fused_spike_counts_stay_exact_past_2_pow_24() {
    let (batch, neurons, steps) = (3usize, 1367usize, 4100usize);
    let exact = (batch * neurons * steps) as u64;
    assert!(exact > 1 << 24);
    let naive = (0..steps).fold(0.0f32, |acc, _| acc + (batch * neurons) as f32);
    assert_ne!(naive, exact as f32, "the f32 running sum must drift here");
    let c = cfg(0.5, steps);
    let mut net = SpikingNetwork::new(
        vec![
            Layer::spiking_linear_from(Tensor::zeros(&[neurons, 1]), Tensor::ones(&[neurons]), &c)
                .unwrap(),
            Layer::output_linear_from(Tensor::zeros(&[1, neurons]), Tensor::zeros(&[1])).unwrap(),
        ],
        c,
    )
    .unwrap();
    let train = FrameTrain::from_frames(&vec![Tensor::zeros(&[1]); steps]).unwrap();
    let out = net.forward_batch(&vec![train; batch]).unwrap();
    assert_eq!(out.spikes_per_layer, vec![exact as f32]);
    assert_eq!(out.spikes_per_layer[0] as u64, exact);
}
