//! `mnist-conv-robust`: the paper's static pipeline on the 7-layer MNIST
//! conv SNN (28×28, T = 32, V_th = 1.0, AxSNN level 0.01).
//!
//! Three phases share one trained, converted network:
//!
//! * (a) fused rate-coded classification (B = 32, Poisson code) of a
//!   clean and a transfer-attacked shard — the binary, event-sorted
//!   conv kernels;
//! * (b) white-box PGD through the surrogate gradient of the SNN;
//! * (c) one cell of the precision-scaling search (Alg. 1): a 1×1
//!   `(V_th, T)` grid × {FP32, FP16, INT8} × one `a_th` scale, with
//!   transfer PGD on the ANN twin — direct-current input, so conv1 runs
//!   the analog dense kernel.
//!
//! A kernel change for one of (a) and (c) therefore shows as no change
//! on the other.
//!
//! End to end, (a) gives `clean_ms_p50` and `attacked_ms_p50` (a fused
//! batch's time over its 32 images, clean and transfer-attacked shards)
//! and (b) gives `craft_ms_p50`; (c) is a workload-specific extra,
//! `search_cell_s`.

use crate::adapters::{SplitSnnGradient, TimedGradient};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{in_ball, ms_since, setup_repeats, Ctx, Metrics, Res, SETUP_REPEATS};
use axsnn::attacks::gradient::{
    AnnGradientSource, AttackBudget, GradientSource, ImageAttack, Pgd, SnnGradientSource,
};
use axsnn::core::approx::{apply_eq1_approximation, ApproximationLevel};
use axsnn::core::batch::sample_seed;
use axsnn::core::convert::ann_to_snn;
use axsnn::core::encoding::Encoder;
use axsnn::core::fused::FrameTrain;
use axsnn::core::layer::Layer;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::BackwardOpts;
use axsnn::core::plan::{ConvBatchKernel, KernelChoice};
use axsnn::core::precision::{apply_precision, PrecisionScale};
use axsnn::core::train::TrainConfig;
use axsnn::datasets::cache::EncodedCache;
use axsnn::datasets::mnist::{MnistConfig, SyntheticMnist};
use axsnn::defense::scenario::{Architecture, MnistScenario, MnistScenarioConfig};
use axsnn::defense::search::{
    precision_scaling_search, PrecisionSearchConfig, SearchSpace, StaticAttackKind,
};
use axsnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SNN: SnnConfig = SnnConfig {
    threshold: 1.0,
    time_steps: 32,
    leak: 0.9,
};
const APPROX_LEVEL: f32 = 0.01;
const EPSILON: f32 = 0.1;
const BATCH: usize = 32;
/// Clean images in phase (a); the same number of transfer-attacked
/// counterparts join them.
const CLASSIFY_IMAGES: usize = 64;
/// Images per search cell.
const CELL_IMAGES: usize = 4;
/// Phase (a) batches per round: each of the four shards twice.
const ROUND_BATCHES: usize = 8;
/// Phase (b) white-box crafts per round.
const ROUND_CRAFTS: usize = 2;
/// Phase (c) search cells, run after the rounds: `search_cell_s` is an
/// extra, so the rounds spend the budget on the end-to-end metrics.
const CELLS: usize = 2;
/// Rounds run even when `--seconds` is spent sooner.
const MIN_ROUNDS: u64 = 3;
/// Test images generated from the seed per class.
const TEST_PER_CLASS: usize = 10;
/// Layers of the converted network, named as in the paper.
const LAYER_NAMES: [&str; 7] = ["conv1", "pool1", "conv2", "pool2", "conv3", "fc1", "out"];
/// Where each named layer's prefix ends in the converted stack (conv,
/// pool, conv, pool, conv, flatten, linear, readout).
const PREFIX_ENDS: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];
/// Timing rounds per prefix network.
const PREFIX_ROUNDS: usize = 15;

/// The benchmark's trimmed scenario. The defaults (40 per class, 12
/// epochs) would spend about 30 s training the paper conv; 10 per class
/// × 6 epochs at 28×28 trains the ANN to about 85% on the benchmark's
/// inputs in a few seconds, and fewer epochs fall below 55%. The model
/// is the system under test, so its seed is fixed; `--seed` picks the
/// inputs.
fn scenario_config() -> MnistScenarioConfig {
    MnistScenarioConfig {
        mnist: MnistConfig {
            size: 28,
            train_per_class: 10,
            test_per_class: 1,
            ..MnistConfig::default()
        },
        architecture: Architecture::PaperConv,
        train: TrainConfig {
            epochs: 6,
            learning_rate: 0.1,
            momentum: 0.0,
            batch_size: 16,
            backward: BackwardOpts {
                threads: 1,
                input_grad_eps: 0.0,
            },
            ..TrainConfig::default()
        },
        seed: 1,
    }
}

struct Model {
    scenario: MnistScenario,
    victim: SpikingNetwork,
}

fn setup(tracer: &Tracer) -> Res<Model> {
    let cfg = scenario_config();
    if tracer.enabled() {
        // Timed alone so that training time = prepare − generate.
        tracer.span("generate", "datasets", 0, || {
            SyntheticMnist::new(cfg.mnist).generate()
        });
    }
    let scenario = tracer.span("prepare", "defense", 0, || MnistScenario::prepare(cfg))?;
    let level = ApproximationLevel::new(APPROX_LEVEL).ok_or("bad approximation level")?;
    let victim = tracer.span("ax_snn", "defense", 0, || scenario.ax_snn(SNN, level))?;
    Ok(Model { scenario, victim })
}

/// Inputs drawn from `--seed`.
fn test_images(seed: u64) -> Vec<(Tensor, usize)> {
    SyntheticMnist::new(MnistConfig {
        size: 28,
        train_per_class: 0,
        test_per_class: TEST_PER_CLASS,
        seed: seed ^ 0x7e57_0001,
        ..MnistConfig::default()
    })
    .generate()
    .test
}

/// Per-phase measurements of one pass.
#[derive(Default)]
struct Pass {
    /// Phase (a) batch time over its images, ms, per shard kind.
    clean_ms: Vec<f64>,
    attacked_ms: Vec<f64>,
    whitebox_ms: Vec<f64>,
    cell_s: Vec<f64>,
    /// Traced only: per-batch encode and forward times, ms, and which
    /// shard each batch was.
    encode_ms: Vec<f64>,
    forward_ms: Vec<f64>,
    spikes: Vec<f64>,
    synaptic_ops: Vec<f64>,
    /// White-box gradient calls and crafts.
    grad_calls: u64,
    crafted: u64,
    pgd_self_ms: Vec<f64>,
    grad_ms: Vec<f64>,
    recorded_forward_ms: Vec<f64>,
    backward_ms: Vec<f64>,
    ann_grad_ms: Vec<f64>,
    cache_encode_ms: Vec<f64>,
    set_accuracy_ms: Vec<f64>,
    encode_passes: Vec<f64>,
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Res<()> {
    let images = test_images(ctx.seed);
    if !ctx.trace {
        let (model, setup_s) = setup_repeats(SETUP_REPEATS, || setup(&Tracer::new(false)))?;
        let ann_ok = images
            .iter()
            .filter(|(x, l)| model.scenario.ann().classify(x).ok() == Some(*l))
            .count();
        report.note(format!(
            "ANN accuracy on the inputs: {ann_ok}/{}",
            images.len()
        ));
        let pass = measure(ctx, &model, &images, &Tracer::new(false), report)?;
        report.metric("setup_s", setup_s, "s");
        for (name, value, unit) in e2e(&pass) {
            report.metric(name, value, unit);
        }
        report.extra("search_cell_s", median(&pass.cell_s), "s");
        return Ok(());
    }
    // Traced run: an untraced pass, then the same pass traced, on the
    // same inputs; their difference is the tracing overhead.
    let model = setup(&Tracer::new(false))?;
    let plain = measure(ctx, &model, &images, &Tracer::new(false), report)?;
    let tracer = Tracer::new(true);
    let root = tracer.open("mnist-conv-robust", "bench", ctx.seed);
    let model = setup(&tracer)?;
    let traced = measure(ctx, &model, &images, &tracer, report)?;
    attribute_layers(ctx, &model, &images, &tracer, report)?;
    drop(root);
    crate::finish_trace(ctx, &tracer, &e2e(&plain), &e2e(&traced), report)?;
    traced_metrics(&tracer, &traced, report);
    Ok(())
}

fn e2e(p: &Pass) -> Metrics {
    vec![
        ("clean_ms_p50", median(&p.clean_ms), "ms"),
        ("attacked_ms_p50", median(&p.attacked_ms), "ms"),
        ("craft_ms_p50", median(&p.whitebox_ms), "ms"),
    ]
}

fn traced_metrics(tracer: &Tracer, p: &Pass, report: &mut Report) {
    let spans = tracer.spans();
    let sum_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    };
    let generate_s = sum_ms("generate") / 1e3;
    report.metric("datasets.generate_s", generate_s, "s");
    report.metric("core.train_s", sum_ms("prepare") / 1e3 - generate_s, "s");
    report.metric("core.convert_ms", sum_ms("ax_snn"), "ms");
    report.metric("core.spikes_per_sample", median(&p.spikes), "count");
    report.metric("attacks.query_ms", median(&p.grad_ms), "ms");
    report.metric(
        "attacks.queries_per_craft",
        p.grad_calls as f64 / p.crafted.max(1) as f64,
        "count",
    );
    report.extra("search_cell_s", median(&p.cell_s), "s");
    report.extra(
        "core.synaptic_ops_per_sample",
        median(&p.synaptic_ops),
        "count",
    );
    report.extra("core.encode_ms", median(&p.encode_ms), "ms");
    report.extra("core.forward_batch_ms", median(&p.forward_ms), "ms");
    report.extra(
        "core.recorded_forward_ms",
        median(&p.recorded_forward_ms),
        "ms",
    );
    report.extra("core.backward_ms", median(&p.backward_ms), "ms");
    report.extra("core.ann_input_gradient_ms", median(&p.ann_grad_ms), "ms");
    report.extra("attacks.pgd_self_ms", median(&p.pgd_self_ms), "ms");
    report.extra("datasets.cache_encode_ms", median(&p.cache_encode_ms), "ms");
    report.extra("datasets.set_accuracy_ms", median(&p.set_accuracy_ms), "ms");
    report.extra("datasets.encode_passes", median(&p.encode_passes), "count");
}

/// One untraced or traced pass over the three phases.
fn measure(
    ctx: &Ctx,
    model: &Model,
    images: &[(Tensor, usize)],
    tracer: &Tracer,
    report: &mut Report,
) -> Res<Pass> {
    let mut pass = Pass::default();
    let budget = AttackBudget::for_epsilon(EPSILON);
    let pgd = Pgd::new(budget);

    // Phase (a) inputs: a clean shard and its transfer-attacked twin.
    let clean: Vec<Tensor> = images[..CLASSIFY_IMAGES]
        .iter()
        .map(|(x, _)| x.clone())
        .collect();
    let adv = {
        let _p = tracer.open("transfer_craft", "bench", 0);
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xa11);
        let mut src = TimedGradient::new(
            AnnGradientSource::new(model.scenario.adversary()),
            tracer,
            "ann_input_gradient",
        );
        let mut adv = Vec::with_capacity(CLASSIFY_IMAGES);
        for (i, (x, label)) in images[..CLASSIFY_IMAGES].iter().enumerate() {
            let a = tracer.span("pgd", "attacks", i as u64, || {
                pgd.perturb(&mut src, x, *label, &mut rng)
            })?;
            report.check(
                in_ball(&a, x, EPSILON),
                "transfer PGD image outside its eps-ball or [0,1]",
            );
            adv.push(a);
        }
        adv
    };
    let shards: Vec<&[Tensor]> = vec![
        &clean[..BATCH],
        &clean[BATCH..],
        &adv[..BATCH],
        &adv[BATCH..],
    ];

    let mut classify_net = model.victim.clone();
    let mut whitebox_net = model.victim.clone();
    let mut whitebox_rng = StdRng::seed_from_u64(ctx.seed ^ 0xb0c5);
    let calibration: Vec<Tensor> = model
        .scenario
        .dataset()
        .train
        .iter()
        .take(32)
        .map(|(x, _)| x.clone())
        .collect();
    if tracer.enabled() {
        // The split source must serve the very gradient the library's
        // source serves.
        let (x, label) = &images[CLASSIFY_IMAGES];
        let mut reference_net = model.victim.clone();
        let want = SnnGradientSource::new(&mut reference_net).loss_gradient(x, *label)?;
        let got = SplitSnnGradient::new(&mut whitebox_net, tracer).loss_gradient(x, *label)?;
        report.check(
            want.as_slice() == got.as_slice(),
            "split white-box gradient differs from SnnGradientSource",
        );
    }
    // The phases run interleaved, a little of each per round, until the
    // budget is spent: the machine's speed drifts over seconds, and
    // interleaving spreads every metric's samples over the whole run.
    let start = Instant::now();
    let (mut lap, mut crafted) = (0usize, 0usize);
    let mut round = 0u64;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        let _r = tracer.open("round", "bench", round);
        for _ in 0..ROUND_BATCHES {
            classify_batch(
                ctx,
                &mut classify_net,
                &shards,
                lap,
                tracer,
                &mut pass,
                report,
            )?;
            lap += 1;
        }
        for _ in 0..ROUND_CRAFTS {
            whitebox_sample(
                &mut whitebox_net,
                &images[CLASSIFY_IMAGES..],
                crafted,
                &mut whitebox_rng,
                tracer,
                &mut pass,
                report,
            )?;
            crafted += 1;
        }
        round += 1;
    }
    for cell in 0..CELLS {
        search_cell(
            ctx,
            model,
            &calibration,
            images,
            cell,
            tracer,
            &mut pass,
            report,
        )?;
    }
    Ok(pass)
}

/// Phase (a): one fused B = 32 classification of shard `lap % 4`.
fn classify_batch(
    ctx: &Ctx,
    net: &mut SpikingNetwork,
    shards: &[&[Tensor]],
    lap: usize,
    tracer: &Tracer,
    pass: &mut Pass,
    report: &mut Report,
) -> Res<()> {
    let s = lap % shards.len();
    let images = shards[s];
    let seed = sample_seed(ctx.seed, lap);
    let t = Instant::now();
    let predictions = if tracer.enabled() {
        // The calls `classify_images_fused` makes at one thread, timed
        // apart.
        let te = Instant::now();
        let mut trains = Vec::with_capacity(images.len());
        for (i, image) in images.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
            trains.push(tracer.span("encode", "core", i as u64, || {
                FrameTrain::encode(image, Encoder::Poisson, SNN.time_steps, &mut rng)
            })?);
        }
        pass.encode_ms.push(ms_since(te));
        let tf = Instant::now();
        let out = tracer.span("forward_batch", "core", lap as u64, || {
            net.forward_batch(&trains)
        })?;
        pass.forward_ms.push(ms_since(tf));
        out.predictions()
    } else {
        net.classify_images_fused(images, Encoder::Poisson, seed, 1, BATCH)?
    };
    let per_sample_ms = ms_since(t) / images.len() as f64;
    // Shards 0 and 1 are clean, 2 and 3 transfer-attacked.
    if s < 2 {
        pass.clean_ms.push(per_sample_ms);
    } else {
        pass.attacked_ms.push(per_sample_ms);
    }
    report.ok(images.len() as u64);
    if lap == 0 {
        // Fused predictions equal per-sample classification.
        let _c = tracer.open("check_per_sample", "core", 0);
        for (i, image) in images.iter().enumerate().take(4) {
            let mut rng = StdRng::seed_from_u64(sample_seed(seed, i));
            let frames = FrameTrain::encode(image, Encoder::Poisson, SNN.time_steps, &mut rng)?
                .to_frames()?;
            let out = net.forward(&frames, false, &mut rng)?;
            pass.spikes.push(f64::from(out.stats.total_spikes()));
            pass.synaptic_ops.push(out.stats.synaptic_ops);
            report.check(
                out.logits.argmax().unwrap_or(0) == predictions[i],
                "fused prediction differs from per-sample classify_frames",
            );
        }
    }
    Ok(())
}

/// Phase (b): white-box PGD on one image of `shard`.
fn whitebox_sample(
    net: &mut SpikingNetwork,
    shard: &[(Tensor, usize)],
    i: usize,
    rng: &mut StdRng,
    tracer: &Tracer,
    pass: &mut Pass,
    report: &mut Report,
) -> Res<()> {
    let pgd = Pgd::new(AttackBudget::for_epsilon(EPSILON));
    let (x, label) = &shard[i % shard.len()];
    let t = Instant::now();
    let a = if tracer.enabled() {
        let mut src =
            TimedGradient::new(SplitSnnGradient::new(net, tracer), tracer, "snn_gradient");
        let a = tracer.span("pgd", "attacks", i as u64, || {
            pgd.perturb(&mut src, x, *label, rng)
        })?;
        pass.grad_calls += src.calls;
        pass.grad_ms.extend(&src.ms);
        pass.recorded_forward_ms.extend(&src.inner.forward_ms);
        pass.backward_ms.extend(&src.inner.backward_ms);
        a
    } else {
        pgd.perturb(&mut SnnGradientSource::new(net), x, *label, rng)?
    };
    pass.whitebox_ms.push(ms_since(t));
    pass.crafted += 1;
    report.ok(1);
    report.check(
        in_ball(&a, x, EPSILON),
        "white-box PGD image outside its eps-ball or [0,1]",
    );
    Ok(())
}

fn search_config() -> PrecisionSearchConfig {
    PrecisionSearchConfig {
        space: SearchSpace {
            thresholds: vec![SNN.threshold],
            time_steps: vec![SNN.time_steps],
            precision_scales: PrecisionScale::ALL.to_vec(),
            approx_scales: vec![1.0],
        },
        // Every candidate is evaluated: no quality gate, no early stop.
        quality_constraint: 0.0,
        epsilon: EPSILON,
        attack: StaticAttackKind::Pgd,
        stop_at_first: false,
        threads: 1,
    }
}

/// Phase (c): one search cell over the `cell`-th group of images.
#[allow(clippy::too_many_arguments)]
fn search_cell(
    ctx: &Ctx,
    model: &Model,
    calibration: &[Tensor],
    images: &[(Tensor, usize)],
    cell: usize,
    tracer: &Tracer,
    pass: &mut Pass,
    report: &mut Report,
) -> Res<()> {
    let ann = model.scenario.ann();
    let lo = (cell % (images.len() / CELL_IMAGES)) * CELL_IMAGES;
    let test = &images[lo..lo + CELL_IMAGES];
    let mut rng = StdRng::seed_from_u64(sample_seed(ctx.seed ^ 0xce11, cell));
    let t = Instant::now();
    if tracer.enabled() {
        let passes = traced_cell(model, calibration, test, tracer, &mut rng, pass, report)?;
        pass.encode_passes.push(passes as f64);
        report.check(passes == 2, "search cell encoded its sets more than once");
    } else {
        let mut trainer = |cfg: SnnConfig| ann_to_snn(ann, cfg, calibration);
        let outcome = precision_scaling_search(
            &search_config(),
            &mut trainer,
            model.scenario.adversary(),
            test,
            &mut rng,
        )?;
        report.check(outcome.encode_passes == 2, "search cell encode_passes != 2");
        report.check(
            outcome.trace.len() == 3,
            "search cell did not evaluate all three precisions",
        );
    }
    pass.cell_s.push(t.elapsed().as_secs_f64());
    report.ok(1);
    Ok(())
}

/// The body of `precision_scaling_search` for a 1×1 grid, through the
/// same public calls, each timed in its own span.
fn traced_cell(
    model: &Model,
    calibration: &[Tensor],
    test: &[(Tensor, usize)],
    tracer: &Tracer,
    rng: &mut StdRng,
    pass: &mut Pass,
    report: &mut Report,
) -> Res<usize> {
    use rand::Rng;
    let config = search_config();
    let pgd = Pgd::new(AttackBudget::for_epsilon(config.epsilon));
    let mut src = TimedGradient::new(
        AnnGradientSource::new(model.scenario.adversary()),
        tracer,
        "ann_input_gradient",
    );
    let mut adv = Vec::with_capacity(test.len());
    for (i, (x, label)) in test.iter().enumerate() {
        let t = Instant::now();
        let before = src.ms.len();
        let a = tracer.span("pgd", "attacks", i as u64, || {
            pgd.perturb(&mut src, x, *label, rng)
        })?;
        let grads: f64 = src.ms[before..].iter().sum();
        pass.pgd_self_ms.push(ms_since(t) - grads);
        report.check(
            in_ball(&a, x, config.epsilon),
            "search-cell PGD image outside its eps-ball or [0,1]",
        );
        adv.push((a, *label));
    }
    pass.ann_grad_ms.extend(&src.ms);
    let cache_seed = rng.gen::<u64>();
    let grid_seed = rng.gen::<u64>();
    let clean_cache = EncodedCache::new(test, cache_seed, config.threads);
    let adv_cache = EncodedCache::new(&adv, cache_seed ^ 0xadf0_0d5e, config.threads);
    let accurate = tracer.span("ann_to_snn", "core", 0, || {
        ann_to_snn(model.scenario.ann(), SNN, calibration)
    })?;
    let get = |cache: &EncodedCache, pass: &mut Pass| -> Res<_> {
        let t = Instant::now();
        let set = tracer.span("cache_get", "datasets", 0, || {
            cache.get(Encoder::DirectCurrent, SNN.time_steps)
        })?;
        pass.cache_encode_ms.push(ms_since(t));
        Ok(set)
    };
    let clean_set = get(&clean_cache, pass)?;
    let adv_set = get(&adv_cache, pass)?;
    let accuracy = |set: &axsnn::datasets::cache::EncodedSet,
                    net: &SpikingNetwork,
                    pass: &mut Pass|
     -> Res<f32> {
        let t = Instant::now();
        let acc = tracer.span("set_accuracy", "datasets", 0, || {
            set.accuracy(net, config.threads)
        })?;
        pass.set_accuracy_ms.push(ms_since(t));
        Ok(acc)
    };
    accuracy(&clean_set, &accurate, pass)?;
    let mut cell_rng = StdRng::seed_from_u64(sample_seed(grid_seed, 0));
    let stats = tracer.span("eq1_stats_forward", "core", 0, || -> Res<_> {
        let mut stat_net = accurate.clone();
        let frames = Encoder::DirectCurrent.encode(&test[0].0, SNN.time_steps, &mut cell_rng)?;
        Ok(stat_net.forward(&frames, false, &mut cell_rng)?.stats)
    })?;
    for &precision in &config.space.precision_scales {
        let candidate = tracer.span("precision_scale", "core", 0, || -> Res<_> {
            let mut candidate = accurate.clone();
            apply_precision(&mut candidate, precision)?;
            apply_eq1_approximation(&mut candidate, &stats, 1.0)?;
            candidate.set_weight_plane(precision.weight_plane())?;
            Ok(candidate)
        })?;
        accuracy(&clean_set, &candidate, pass)?;
        accuracy(&adv_set, &candidate, pass)?;
    }
    Ok(clean_cache.encode_passes() + adv_cache.encode_passes())
}

/// Per-layer attribution by prefix networks: each prefix of the stack,
/// closed by a flatten and a zero-weight readout, is timed on the same
/// batch; a layer's time is its prefix's time minus the previous
/// prefix's, starting from a readout-only baseline.
fn attribute_layers(
    ctx: &Ctx,
    model: &Model,
    images: &[(Tensor, usize)],
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let _p = tracer.open("prefix_attribution", "bench", 0);
    let layers = model.victim.layers();
    let plan = model.victim.exec_plan().layers();
    let seed = sample_seed(ctx.seed, 0);
    // Rate-coded: the phase (a) batch (clean shard 0, lap 0 encoding).
    let rate: Vec<FrameTrain> = images[..BATCH]
        .iter()
        .enumerate()
        .map(|(i, (x, _))| {
            FrameTrain::encode(
                x,
                Encoder::Poisson,
                SNN.time_steps,
                &mut StdRng::seed_from_u64(sample_seed(seed, i)),
            )
        })
        .collect::<Result<_, _>>()?;
    // Direct current: a search-cell-sized batch.
    let direct: Vec<FrameTrain> = images[..CELL_IMAGES]
        .iter()
        .map(|(x, _)| {
            FrameTrain::encode(
                x,
                Encoder::DirectCurrent,
                SNN.time_steps,
                &mut StdRng::seed_from_u64(0),
            )
        })
        .collect::<Result<_, _>>()?;
    let prefixes = prefix_networks(layers)?;
    for (family, trains) in [("rate", &rate), ("direct", &direct)] {
        // Interleaved best-of-N: round-robin over the prefixes so that
        // drift in machine speed lands on every prefix alike, and the
        // fastest round of each, which is least disturbed by other load.
        let mut nets: Vec<SpikingNetwork> = prefixes.clone();
        nets.push(model.victim.clone());
        let mut reps: Vec<Vec<f64>> = vec![Vec::new(); nets.len()];
        let mut outs = vec![None; nets.len()];
        for _ in 0..PREFIX_ROUNDS {
            for (k, net) in nets.iter_mut().enumerate() {
                let t = Instant::now();
                let out = tracer.span("prefix_forward_batch", "core", k as u64, || {
                    net.forward_batch(trains)
                })?;
                reps[k].push(ms_since(t));
                outs[k] = Some(out);
            }
        }
        // The last prefix is the whole stack rebuilt from its layers: it
        // must compute exactly what the library network computes.
        let whole_out = outs[prefixes.len()]
            .take()
            .ok_or("no forward_batch output")?;
        report.check(
            outs[prefixes.len() - 1].as_ref() == Some(&whole_out),
            "the full prefix network's output differs from the library network's",
        );
        let full_spikes = whole_out.spikes_per_layer;
        let times: Vec<f64> = reps
            .iter()
            .map(|r| r.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        report.note(format!(
            "{family} prefix best-of-{PREFIX_ROUNDS} ms (baseline first): {times:.3?}"
        ));
        let mut sum = 0.0;
        let neurons = spiking_neurons(layers)?;
        let mut spiking = 0usize;
        for (k, name) in LAYER_NAMES.iter().enumerate() {
            let part = times[k + 1] - times[k];
            sum += part;
            report.extra(&format!("core.{family}.{name}_ms"), part, "ms");
            let idx = PREFIX_ENDS[k] - 1;
            if layers[idx].is_spiking() {
                let density = f64::from(full_spikes[spiking])
                    / (trains.len() * SNN.time_steps * neurons[spiking]) as f64;
                spiking += 1;
                report.extra(
                    &format!("core.{family}.{name}_density"),
                    density,
                    "fraction",
                );
            }
            let kernel = match (plan[idx].choice, plan[idx].conv_batch) {
                (None, _) => "-".to_string(),
                (Some(KernelChoice::Dense), _) => "dense".to_string(),
                (Some(KernelChoice::Sparse { threshold }), Some(ConvBatchKernel::EventSorted)) => {
                    format!("sparse@{threshold:.2}/event-sorted")
                }
                (Some(KernelChoice::Sparse { threshold }), Some(ConvBatchKernel::RowByRow)) => {
                    format!("sparse@{threshold:.2}/row-by-row")
                }
                (Some(KernelChoice::Sparse { threshold }), None) => {
                    format!("sparse@{threshold:.2}")
                }
            };
            report.note(format!(
                "layer {family}.{name}: {part:.3} ms, kernel {kernel}"
            ));
        }
        // The library network itself, timed in the same rounds, against
        // the parts, which telescope to the full prefix minus the
        // readout-only baseline. The two run the same computation, so
        // the gap is the host's timing noise.
        let whole = times[prefixes.len()];
        report.note(format!(
            "{family} layer parts sum {sum:.3} ms vs forward_batch {whole:.3} ms ({:+.1}%)",
            100.0 * (sum / whole - 1.0)
        ));
    }
    Ok(())
}

/// Output neurons of each spiking layer, in order.
fn spiking_neurons(layers: &[Layer]) -> Res<Vec<usize>> {
    let mut x = Tensor::zeros(&[1, 28, 28]);
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::new();
    for layer in layers {
        let mut l = layer.clone();
        x = l.forward_step(&x, false, &mut rng)?;
        if l.is_spiking() {
            out.push(x.len());
        }
    }
    Ok(out)
}

/// Readout-only baseline, then one network per named prefix.
fn prefix_networks(layers: &[Layer]) -> Res<Vec<SpikingNetwork>> {
    let mut nets = Vec::new();
    let mut rng = StdRng::seed_from_u64(0);
    for end in std::iter::once(0).chain(PREFIX_ENDS) {
        if end == layers.len() {
            nets.push(SpikingNetwork::new(layers.to_vec(), SNN)?);
            continue;
        }
        let mut stack: Vec<Layer> = layers[..end].to_vec();
        let mut x = Tensor::zeros(&[1, 28, 28]);
        for l in &mut stack.clone() {
            x = l.forward_step(&x, false, &mut rng)?;
        }
        if x.shape().rank() > 1 {
            stack.push(Layer::flatten());
        }
        stack.push(Layer::output_linear_from(
            Tensor::zeros(&[10, x.len()]),
            Tensor::zeros(&[10]),
        )?);
        nets.push(SpikingNetwork::new(stack, SNN)?);
    }
    Ok(nets)
}
