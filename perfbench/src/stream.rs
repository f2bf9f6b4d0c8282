//! `dvs-conv-stream`: AQF-defended event-stream inference (Alg. 2) on
//! the paper's DVS conv SNN (2×32×32, T = 32).
//!
//! Each test stream is Sparse-attacked against the adversary's
//! surrogate SNN and also Frame-attacked. Clean, Sparse and Frame
//! streams are then classified event by event through `StreamSession`
//! with the causal AQF on. Clean streams (about 1k events) barely touch
//! the filter or the density gate; Frame streams (about 16.8k events)
//! hit both hard, so the clean/attacked pair separates a change to AQF
//! or the dense fallback from a change to the common B = 1 stepper.
//!
//! End to end, clean streams give `clean_ms_p50`, Frame streams
//! `attacked_ms_p50` and the Sparse attack `craft_ms_p50`; the tail
//! percentiles and the Sparse streams' time are workload-specific
//! extras.

use crate::adapters::TimedEventModel;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{ms_since, setup_repeats, Ctx, Metrics, Res, SETUP_REPEATS};
use axsnn::attacks::neuromorphic::{
    FrameAttack, FrameAttackConfig, SnnEventModel, SparseAttack, SparseAttackConfig,
};
use axsnn::core::approx::ApproximationLevel;
use axsnn::core::batch::sample_seed;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::core::plan::BackwardOpts;
use axsnn::core::train::TrainConfig;
use axsnn::datasets::dvs::{DvsGestureConfig, SyntheticDvsGestures};
use axsnn::defense::scenario::{Architecture, DvsScenario, DvsScenarioConfig};
use axsnn::neuromorphic::aqf::AqfConfig;
use axsnn::neuromorphic::event::EventStream;
use axsnn::neuromorphic::frames::{accumulate_frames, Accumulation};
use axsnn::neuromorphic::stream::{
    StreamConfig, StreamOutcome, StreamSession, StreamingAqf, WindowSchedule,
};
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SNN: SnnConfig = SnnConfig {
    threshold: 1.0,
    time_steps: 32,
    leak: 0.9,
};
/// The adversary's surrogate, as in the DVS defense example.
const SURROGATE: SnnConfig = SnnConfig {
    threshold: 0.75,
    time_steps: 24,
    leak: 0.9,
};
const APPROX_LEVEL: f32 = 0.1;
/// Streams each tail percentile is read from, per kind: the p90 then
/// has 10 samples beyond it.
const MIN_STREAMS: usize = 100;
/// Test streams generated from the seed per gesture class.
const TEST_PER_CLASS: usize = 10;

/// The benchmark's trimmed scenario: 8 streams per class × 15 epochs
/// trains the paper DVS conv to about 70% on 11 classes in a few
/// seconds; fewer epochs or streams fall to about 50%. The model seed is
/// fixed; `--seed` picks the test streams.
fn scenario_config() -> DvsScenarioConfig {
    DvsScenarioConfig {
        dvs: DvsGestureConfig {
            train_per_class: 8,
            test_per_class: 1,
            ..DvsGestureConfig::default()
        },
        architecture: Architecture::PaperConv,
        train: TrainConfig {
            epochs: 15,
            learning_rate: 0.1,
            momentum: 0.0,
            batch_size: 16,
            backward: BackwardOpts {
                threads: 1,
                input_grad_eps: 0.0,
            },
            ..TrainConfig::default()
        },
        rate_time_steps: 32,
        seed: 2,
    }
}

fn aqf() -> AqfConfig {
    AqfConfig {
        quantization_step: 0.015,
        ..AqfConfig::default()
    }
}

fn stream_config(aqf: Option<AqfConfig>) -> StreamConfig {
    StreamConfig {
        schedule: WindowSchedule::Uniform {
            time_steps: SNN.time_steps,
        },
        mode: Accumulation::Binary,
        aqf,
    }
}

struct Model {
    victim: SpikingNetwork,
    surrogate: SpikingNetwork,
}

fn setup(tracer: &Tracer) -> Res<Model> {
    let cfg = scenario_config();
    if tracer.enabled() {
        tracer.span("generate", "datasets", 0, || {
            SyntheticDvsGestures::new(cfg.dvs).generate()
        });
    }
    let scenario = tracer.span("prepare", "defense", 0, || DvsScenario::prepare(cfg))?;
    let level = ApproximationLevel::new(APPROX_LEVEL).ok_or("bad approximation level")?;
    let victim = tracer.span("ax_snn", "defense", 0, || scenario.ax_snn(SNN, level))?;
    let surrogate = tracer.span("adversary_snn", "defense", 0, || {
        scenario.adversary_snn(SURROGATE)
    })?;
    Ok(Model { victim, surrogate })
}

/// Streaming-layer measurements of one session.
#[derive(Default)]
struct Session {
    ms: f64,
    first_window_ms: f64,
    quiet_push_ns: f64,
    quiet_pushes: u64,
    close_ms: Vec<f64>,
}

#[derive(Default)]
struct Pass {
    craft_s: Vec<f64>,
    clean_correct: usize,
    clean_ms: Vec<f64>,
    clean_spikes: Vec<f64>,
    frame_ms: Vec<f64>,
    sparse_ms: Vec<f64>,
    // Traced only.
    queries: Vec<f64>,
    query_ms: Vec<f64>,
    flips: Vec<f64>,
    frame_perturb_ms: Vec<f64>,
    quiet_push_ns: f64,
    quiet_pushes: u64,
    close_ms: Vec<f64>,
    first_window_ms: Vec<f64>,
    fallbacks_per_frame_stream: f64,
    aqf_ns_per_event: f64,
    aqf_kept_frac: f64,
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Res<()> {
    let test = SyntheticDvsGestures::new(DvsGestureConfig {
        train_per_class: 0,
        test_per_class: TEST_PER_CLASS,
        seed: ctx.seed ^ 0xd5_7e57,
        ..DvsGestureConfig::default()
    })
    .generate()
    .test;
    if !ctx.trace {
        let (mut model, setup_s) = setup_repeats(SETUP_REPEATS, || setup(&Tracer::new(false)))?;
        let pass = measure(ctx, &mut model, &test, &Tracer::new(false), report)?;
        report.metric("setup_s", setup_s, "s");
        for (name, value, unit) in e2e(&pass) {
            report.metric(name, value, unit);
        }
        tails(&pass, report)?;
        return Ok(());
    }
    let mut model = setup(&Tracer::new(false))?;
    let plain = measure(ctx, &mut model, &test, &Tracer::new(false), report)?;
    let tracer = Tracer::new(true);
    let root = tracer.open("dvs-conv-stream", "bench", ctx.seed);
    let mut model = setup(&tracer)?;
    let traced = measure(ctx, &mut model, &test, &tracer, report)?;
    drop(root);
    crate::finish_trace(ctx, &tracer, &e2e(&plain), &e2e(&traced), report)?;
    traced_metrics(&tracer, &traced, report);
    Ok(())
}

fn e2e(p: &Pass) -> Metrics {
    vec![
        ("clean_ms_p50", median(&p.clean_ms), "ms"),
        ("attacked_ms_p50", median(&p.frame_ms), "ms"),
        ("craft_ms_p50", 1e3 * median(&p.craft_s), "ms"),
    ]
}

/// The streams' tail percentiles and the Sparse streams' median.
fn tails(p: &Pass, report: &mut Report) -> Res<()> {
    let p90 = |v: &[f64]| percentile(v, 90.0).ok_or("fewer than 100 streams for a p90");
    report.extra("stream_clean_ms_p90", p90(&p.clean_ms)?, "ms");
    report.extra("stream_attacked_ms_p90", p90(&p.frame_ms)?, "ms");
    report.extra("stream_sparse_ms_p50", median(&p.sparse_ms), "ms");
    Ok(())
}

fn traced_metrics(tracer: &Tracer, p: &Pass, report: &mut Report) {
    let spans = tracer.spans();
    let sum_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    };
    let generate_s = sum_s("generate");
    report.metric("datasets.generate_s", generate_s, "s");
    report.metric("core.train_s", sum_s("prepare") - generate_s, "s");
    report.metric("core.convert_ms", sum_s("ax_snn") * 1e3, "ms");
    report.metric("core.spikes_per_sample", median(&p.clean_spikes), "count");
    report.metric("attacks.query_ms", median(&p.query_ms), "ms");
    report.metric(
        "attacks.queries_per_craft",
        p.queries.iter().sum::<f64>() / p.queries.len().max(1) as f64,
        "count",
    );
    report.extra(
        "core.dense_fallbacks",
        p.fallbacks_per_frame_stream,
        "count",
    );
    report.extra(
        "attacks.sparse_flips_per_query",
        p.flips.iter().sum::<f64>() / p.flips.len().max(1) as f64,
        "count",
    );
    report.extra(
        "attacks.frame_perturb_ms",
        median(&p.frame_perturb_ms),
        "ms",
    );
    report.extra(
        "neuromorphic.push_ns_per_event",
        p.quiet_push_ns / p.quiet_pushes.max(1) as f64,
        "ns",
    );
    report.extra("neuromorphic.window_close_ms", median(&p.close_ms), "ms");
    report.extra(
        "neuromorphic.first_window_ms",
        median(&p.first_window_ms),
        "ms",
    );
    report.extra("neuromorphic.aqf_ns_per_event", p.aqf_ns_per_event, "ns");
    report.extra("neuromorphic.aqf_kept_frac", p.aqf_kept_frac, "fraction");
}

/// Classifies `stream` event by event. Traced runs time every push and
/// keep the window-closing ones as spans.
fn stream_one(
    net: &mut SpikingNetwork,
    stream: &EventStream,
    aqf: Option<AqfConfig>,
    tracer: &Tracer,
    id: u64,
) -> Res<(StreamOutcome, Session)> {
    let mut rng = StepRng::new(0, 1);
    let mut s = Session::default();
    let _g = tracer.open("stream_session", "neuromorphic", id);
    let start = Instant::now();
    let mut session =
        StreamSession::begin(net, stream.width(), stream.height(), stream_config(aqf))?;
    if tracer.enabled() {
        for e in stream.events() {
            let t = Instant::now();
            let closed = session.push(*e, &mut rng)?;
            let end = Instant::now();
            let ns = end.duration_since(t).as_nanos() as f64;
            if closed == 0 {
                s.quiet_push_ns += ns;
                s.quiet_pushes += 1;
            } else {
                // Only window-closing pushes become spans: a span per
                // event would outweigh the push itself.
                tracer.record("window_close", "neuromorphic", id, t, end);
                s.close_ms.push(ns / 1e6);
                if s.first_window_ms == 0.0 && session.logits_so_far().is_some() {
                    s.first_window_ms = ms_since(start);
                }
            }
        }
    } else {
        for e in stream.events() {
            session.push(*e, &mut rng)?;
        }
    }
    let out = session.finish(&mut rng)?;
    s.ms = ms_since(start);
    Ok((out, s))
}

fn measure(
    ctx: &Ctx,
    model: &mut Model,
    test: &[(EventStream, usize)],
    tracer: &Tracer,
    report: &mut Report,
) -> Res<Pass> {
    let mut pass = Pass::default();
    let frame_attack = FrameAttack::new(FrameAttackConfig {
        thickness: 2,
        ..FrameAttackConfig::default()
    });
    let frames: Vec<EventStream> = {
        let _p = tracer.open("frame_attack", "bench", 0);
        test.iter()
            .enumerate()
            .map(|(i, (s, _))| {
                let t = Instant::now();
                let adv = tracer.span("frame_perturb", "attacks", i as u64, || {
                    frame_attack.perturb(s)
                });
                pass.frame_perturb_ms.push(ms_since(t));
                adv
            })
            .collect::<Result<_, _>>()?
    };

    // Streamed logits without AQF equal the offline forward on the
    // accumulated frames, for a clean and a Frame-attacked stream.
    {
        let _p = tracer.open("stream_equivalence", "bench", 0);
        for stream in [&test[0].0, &frames[0]] {
            let (out, _) = stream_one(&mut model.victim, stream, None, tracer, 0)?;
            let offline = tracer.span("offline_forward", "core", 0, || -> Res<_> {
                let frames = accumulate_frames(stream, SNN.time_steps, Accumulation::Binary)?;
                Ok(model
                    .victim
                    .forward(&frames, false, &mut StepRng::new(0, 1))?)
            })?;
            report.check(
                out.logits.as_slice() == offline.logits.as_slice(),
                "streamed logits without AQF differ from the offline forward",
            );
        }
    }

    // Each round Sparse-attacks one test stream against the surrogate,
    // then classifies it clean, Frame-attacked and Sparse-attacked with
    // AQF on. Rounds repeat until the budget is spent, so crafting and
    // streaming both sample the whole run.
    let sparse_attack = SparseAttack::new(SparseAttackConfig::default());
    let _p = tracer.open("rounds", "bench", 0);
    let fallbacks_before = model.victim.total_dense_fallbacks();
    let mut frame_fallbacks = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while i < MIN_STREAMS || start.elapsed().as_secs_f64() < ctx.seconds {
        let k = i % test.len();
        let (stream, label) = &test[k];
        let mut rng = StdRng::seed_from_u64(sample_seed(ctx.seed ^ 0x5ba5, i));
        let t = Instant::now();
        let sparse = if tracer.enabled() {
            let mut model =
                TimedEventModel::new(SnnEventModel::new(&mut model.surrogate), tracer, stream);
            let adv = tracer.span("sparse_perturb", "attacks", i as u64, || {
                sparse_attack.perturb(&mut model, stream, *label, &mut rng)
            })?;
            pass.queries.push(model.queries as f64);
            pass.query_ms.extend(&model.ms);
            pass.flips.extend(&model.flips);
            adv
        } else {
            sparse_attack.perturb(
                &mut SnnEventModel::new(&mut model.surrogate),
                stream,
                *label,
                &mut rng,
            )?
        };
        pass.craft_s.push(t.elapsed().as_secs_f64());
        report.ok(1);
        for (kind, stream) in [
            ("clean", stream),
            ("frame", &frames[k]),
            ("sparse", &sparse),
        ] {
            let before = model.victim.total_dense_fallbacks();
            let (out, s) = stream_one(&mut model.victim, stream, Some(aqf()), tracer, i as u64)?;
            if kind == "clean" {
                pass.clean_correct += usize::from(out.prediction == *label);
                pass.clean_spikes.push(f64::from(out.stats.total_spikes()));
            }
            report.ok(1);
            report.check(
                out.events_kept <= out.events_in,
                "AQF kept more events than it received",
            );
            match kind {
                "clean" => pass.clean_ms.push(s.ms),
                "frame" => {
                    pass.frame_ms.push(s.ms);
                    frame_fallbacks += model.victim.total_dense_fallbacks() - before;
                }
                _ => pass.sparse_ms.push(s.ms),
            }
            pass.quiet_push_ns += s.quiet_push_ns;
            pass.quiet_pushes += s.quiet_pushes;
            pass.close_ms.extend(&s.close_ms);
            if s.first_window_ms > 0.0 {
                pass.first_window_ms.push(s.first_window_ms);
            }
        }
        i += 1;
    }
    drop(_p);
    pass.fallbacks_per_frame_stream = frame_fallbacks as f64 / pass.frame_ms.len().max(1) as f64;
    report.note(format!(
        "streams: {} clean ({} classified right), {} frame, {} sparse; dense fallbacks {} ({:.1} per frame stream); sparse p50 {:.3} ms",
        pass.clean_ms.len(),
        pass.clean_correct,
        pass.frame_ms.len(),
        pass.sparse_ms.len(),
        model.victim.total_dense_fallbacks() - fallbacks_before,
        pass.fallbacks_per_frame_stream,
        median(&pass.sparse_ms)
    ));
    if tracer.enabled() {
        // The causal filter replayed alone over the Frame streams.
        let _p = tracer.open("aqf_replay", "neuromorphic", 0);
        let (mut events, mut kept, mut ns) = (0usize, 0usize, 0f64);
        for stream in &frames {
            let mut filter = StreamingAqf::new(stream.width(), stream.height(), aqf())?;
            let t = Instant::now();
            for e in stream.events() {
                kept += usize::from(filter.push(*e).is_some());
            }
            ns += t.elapsed().as_nanos() as f64;
            events += stream.len();
        }
        pass.aqf_ns_per_event = ns / events as f64;
        pass.aqf_kept_frac = kept as f64 / events as f64;
    }
    Ok(pass)
}
