//! `mnist-mlp-serve`: open-loop traffic against `InferenceService` with
//! its default configuration, serving the FastMlp AxSNN (T = 16).
//!
//! Half the requests carry a clean test image and half its transfer-PGD
//! twin, crafted on the scenario's ANN adversary before the traffic
//! starts (the client's attack; `craft_ms_p50`), interleaved one to one.
//! Requests arrive as a Poisson process at each rate of a fixed ladder.
//! Due times are fixed up front from the seed, and every request is
//! timed from its due time to its answer, so a stalled generator shows
//! as latency and as `serve.generator_lag_ms_max` instead of silently
//! lowering the offered load. Beside the classify traffic, `metrics()`
//! is scraped on a fixed interval (the read path) and `swap_model` runs
//! once per rate step (the write path).
//!
//! The library's own generator (`serve::traffic::run_open_loop`) is not
//! used: it sleeps each gap after the previous submit, so its schedule
//! drifts under load, and the service's own latency starts at submit,
//! which hides generator stalls.

use crate::adapters::TimedGradient;
use crate::report::Report;
use crate::stats::{due_times, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{in_ball, ms_since, setup_repeats, Ctx, Metrics, Res};
use axsnn::attacks::gradient::{AnnGradientSource, AttackBudget, ImageAttack, Pgd};
use axsnn::core::approx::ApproximationLevel;
use axsnn::core::batch::sample_seed;
use axsnn::core::fused::FrameTrain;
use axsnn::core::network::{SnnConfig, SpikingNetwork};
use axsnn::datasets::mnist::{MnistConfig, SyntheticMnist};
use axsnn::defense::scenario::{MnistScenario, MnistScenarioConfig};
use axsnn::serve::{InferenceService, Request, Response, ServeConfig, ServeError, Ticket};
use axsnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SNN: SnnConfig = SnnConfig {
    threshold: 1.0,
    time_steps: 16,
    leak: 0.9,
};
const APPROX_LEVEL: f32 = 0.01;
/// Offered rates, requests per second, in the order they run. The top
/// rate is far past the service's capacity, so the ladder always shows
/// where the limit is crossed; the rate below it is under the capacity
/// even when the host is busy, so the highest rate meeting the limit
/// repeats from run to run.
pub const LADDER_RPS: [f64; 5] = [500.0, 1000.0, 1500.0, 2000.0, 16000.0];
/// Share of `--seconds` each rate step runs for: the reference step runs
/// first, on a fresh service, and long enough for a windowed p99.
const STEP_SHARE: [f64; 5] = [0.4, 0.15, 0.15, 0.15, 0.15];
/// The rate `clean_ms_p50`, `attacked_ms_p50` and `serve.p99_ms` are
/// read at: far below the service's capacity on two shared virtual CPUs
/// (about 3,000/s when the host is busy, 10,000/s when it is idle), so
/// the latency they read is mostly the coalescing window's and not the
/// host's.
pub const REFERENCE_RPS: f64 = 500.0;
/// A rate step meets the limit when its windowed p99, timed from due
/// times and counting every refused, expired or failed request as over
/// the limit, is at most this, and the backlog did not grow.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Requests per p99 window (see [`windowed_p99`]).
const WINDOW_REQUESTS: f64 = 1100.0;
/// Interval of the `metrics()` scrape.
const SCRAPE_EVERY: Duration = Duration::from_millis(50);
/// Distinct clean test images; each also has an attacked twin, and every
/// input has its own encoding seed.
const IMAGES: usize = 200;
/// The client's transfer-PGD budget.
const EPSILON: f32 = 0.1;
/// Set-up takes a fraction of a second here, so it is repeated more
/// often than the offline workloads' for a steady median.
const SETUP_REPEATS: usize = 9;
/// Crafting one image takes about a millisecond, so one pass over the
/// images is a fraction of a second of a shared host; the passes repeat,
/// timed alike, until this much time is spent, and the first pass makes
/// the requests.
const CRAFT_SECONDS: f64 = 4.0;
/// A ticket unanswered this long after the last due time is hung.
const HANG_AFTER: Duration = Duration::from_secs(10);

struct Served {
    scenario: MnistScenario,
    net: SpikingNetwork,
    service: InferenceService,
}

fn setup(tracer: &Tracer) -> Res<Served> {
    let cfg = MnistScenarioConfig::default();
    if tracer.enabled() {
        tracer.span("generate", "datasets", 0, || {
            SyntheticMnist::new(cfg.mnist).generate()
        });
    }
    let scenario = tracer.span("prepare", "defense", 0, || MnistScenario::prepare(cfg))?;
    let level = ApproximationLevel::new(APPROX_LEVEL).ok_or("bad approximation level")?;
    let net = tracer.span("ax_snn", "defense", 0, || scenario.ax_snn(SNN, level))?;
    let probe = scenario.dataset().test[0].0.clone();
    let service = tracer.span("start", "serve", 0, || {
        InferenceService::start(net.clone(), probe, ServeConfig::default())
    })?;
    Ok(Served {
        scenario,
        net,
        service,
    })
}

/// The request inputs: each clean image followed by its transfer-PGD
/// twin, so input `k` is attacked when `k` is odd. Also returns each
/// craft's wall time, ms, over [`CRAFT_SECONDS`] of passes, and the
/// wrapped gradient source's calls and per-call times.
fn craft(
    ctx: &Ctx,
    served: &Served,
    images: &[(Tensor, usize)],
    tracer: &Tracer,
    report: &mut Report,
) -> Res<(Vec<Tensor>, Crafts)> {
    let _p = tracer.open("transfer_craft", "bench", 0);
    let pgd = Pgd::new(AttackBudget::for_epsilon(EPSILON));
    let mut src = TimedGradient::new(
        AnnGradientSource::new(served.scenario.adversary()),
        tracer,
        "ann_input_gradient",
    );
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xa11);
    let mut inputs = Vec::with_capacity(2 * images.len());
    let mut craft_ms = Vec::with_capacity(images.len());
    let start = Instant::now();
    while craft_ms.is_empty() || start.elapsed().as_secs_f64() < CRAFT_SECONDS {
        for (i, (x, label)) in images.iter().enumerate() {
            let t = Instant::now();
            let adv = tracer.span("pgd", "attacks", i as u64, || {
                pgd.perturb(&mut src, x, *label, &mut rng)
            })?;
            craft_ms.push(ms_since(t));
            report.ok(1);
            report.check(
                in_ball(&adv, x, EPSILON),
                "transfer PGD image outside its eps-ball or [0,1]",
            );
            if inputs.len() < 2 * images.len() {
                inputs.push(x.clone());
                inputs.push(adv);
            }
        }
    }
    Ok((
        inputs,
        Crafts {
            craft_ms,
            calls: src.calls,
            call_ms: src.ms,
        },
    ))
}

/// What crafting the attacked inputs cost.
struct Crafts {
    craft_ms: Vec<f64>,
    calls: u64,
    call_ms: Vec<f64>,
}

/// One answered (or failed) request.
struct Done {
    step: usize,
    image: usize,
    due: Instant,
    submitted: Instant,
    answered: Instant,
    outcome: Result<Response, ServeError>,
}

/// A submitted request travelling from the generator to the harvester.
struct InFlight {
    id: u64,
    step: usize,
    image: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// Everything one pass measured.
struct Pass {
    done: Vec<Done>,
    hung: usize,
    step_len: Vec<Duration>,
    scrape_us: Vec<f64>,
    swap_ms: Vec<f64>,
    max_queue_depth: u64,
}

/// Runs the workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Res<()> {
    let images: Vec<(Tensor, usize)> = SyntheticMnist::new(MnistConfig {
        size: 16,
        train_per_class: 0,
        test_per_class: IMAGES / 10,
        seed: ctx.seed ^ 0x5e7e_0002,
        ..MnistConfig::default()
    })
    .generate()
    .test;
    let seeds: Vec<u64> = (0..2 * IMAGES).map(|k| sample_seed(ctx.seed, k)).collect();
    if !ctx.trace {
        let (served, setup_s) = setup_repeats(SETUP_REPEATS, || setup(&Tracer::new(false)))?;
        let (inputs, crafts) = craft(ctx, &served, &images, &Tracer::new(false), report)?;
        let pass = drive(ctx, &served, &inputs, &seeds, &Tracer::new(false))?;
        report.metric("setup_s", setup_s, "s");
        let ev = evaluate(&served, &pass, &inputs, &seeds, &crafts, report)?;
        for (name, value, unit) in ev.e2e {
            report.metric(name, value, unit);
        }
        report.extra("serve.p99_ms", ev.p99, "ms");
        report.extra("serve.max_rps", ev.max_rps, "1/s");
        served.service.shutdown();
        return Ok(());
    }
    let served = setup(&Tracer::new(false))?;
    let (inputs, crafts) = craft(ctx, &served, &images, &Tracer::new(false), report)?;
    let plain_pass = drive(ctx, &served, &inputs, &seeds, &Tracer::new(false))?;
    let plain = evaluate(&served, &plain_pass, &inputs, &seeds, &crafts, report)?;
    served.service.shutdown();
    drop(served);
    let tracer = Tracer::new(true);
    let root = tracer.open("mnist-mlp-serve", "bench", ctx.seed);
    let served = setup(&tracer)?;
    let (inputs, crafts) = craft(ctx, &served, &images, &tracer, report)?;
    let pass = drive(ctx, &served, &inputs, &seeds, &tracer)?;
    tracer.span("shutdown", "serve", 0, || served.service.shutdown());
    let spikes = clean_spikes(&served, &inputs, &seeds, &tracer)?;
    drop(root);
    let traced = evaluate(&served, &pass, &inputs, &seeds, &crafts, report)?;
    crate::finish_trace(ctx, &tracer, &plain.e2e, &traced.e2e, report)?;
    traced_metrics(&tracer, &pass, &crafts, spikes, plain.p99, report);
    report.extra("serve.max_rps", plain.max_rps, "1/s");
    Ok(())
}

/// Spikes of one clean input through the served network, the median
/// over the first clean inputs.
fn clean_spikes(served: &Served, inputs: &[Tensor], seeds: &[u64], tracer: &Tracer) -> Res<f64> {
    let mut net = served.net.clone();
    let mut ops = Vec::new();
    for k in (0..inputs.len()).step_by(2).take(20) {
        let mut rng = StdRng::seed_from_u64(seeds[k]);
        let frames = FrameTrain::encode(
            &inputs[k],
            ServeConfig::default().encoder,
            SNN.time_steps,
            &mut rng,
        )?
        .to_frames()?;
        let out = tracer.span("forward", "core", k as u64, || {
            net.forward(&frames, false, &mut rng)
        })?;
        ops.push(f64::from(out.stats.total_spikes()));
    }
    Ok(median(&ops))
}

/// Runs the rate ladder: one generator thread submits on schedule, one
/// harvester thread collects answers, and the calling thread scrapes
/// metrics and swaps the model.
fn drive(
    ctx: &Ctx,
    served: &Served,
    images: &[Tensor],
    seeds: &[u64],
    tracer: &Tracer,
) -> Res<Pass> {
    let service = &served.service;
    let step_len: Vec<Duration> = STEP_SHARE
        .iter()
        .map(|f| Duration::from_secs_f64(ctx.seconds * f))
        .collect();
    let schedules: Vec<Vec<f64>> = LADDER_RPS
        .iter()
        .zip(&step_len)
        .enumerate()
        .map(|(s, (&rate, len))| {
            due_times(
                sample_seed(ctx.seed ^ 0xa771_7a15, s),
                rate,
                len.as_secs_f64(),
            )
        })
        .collect();
    // A short lead so the generator starts on time.
    let t0 = Instant::now() + Duration::from_millis(20);
    let step_start: Vec<Instant> = step_len
        .iter()
        .scan(t0, |at, len| {
            let start = *at;
            *at += *len;
            Some(start)
        })
        .collect();
    let end = t0 + step_len.iter().sum::<Duration>();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut scrape_us = Vec::new();
    let mut swap_ms = Vec::new();
    let (done, hung) = std::thread::scope(|scope| -> Res<(Vec<Done>, usize)> {
        let starts = &step_start;
        let schedules = &schedules;
        let generator = scope.spawn(move || {
            // Submissions the service refuses are answered on the spot.
            let mut refused = Vec::new();
            let mut id = 0u64;
            for (s, schedule) in schedules.iter().enumerate() {
                for &offset in schedule {
                    let due = starts[s] + Duration::from_secs_f64(offset);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let image = (id as usize) % images.len();
                    let submitted = Instant::now();
                    let ticket = {
                        let _g = tracer.open("submit", "serve", id);
                        service.submit(Request::new(images[image].clone(), seeds[image]))
                    };
                    match ticket {
                        Ok(ticket) => {
                            let msg = InFlight {
                                id,
                                step: s,
                                image,
                                due,
                                submitted,
                                ticket,
                            };
                            if tx.send(msg).is_err() {
                                return refused;
                            }
                        }
                        Err(e) => refused.push(Done {
                            step: s,
                            image,
                            due,
                            submitted,
                            answered: submitted,
                            outcome: Err(e),
                        }),
                    }
                    id += 1;
                }
            }
            refused
        });
        let harvester = scope.spawn(move || harvest(rx, tracer, end + HANG_AFTER));
        // The read and write paths, on the calling thread.
        for (s, &start) in step_start.iter().enumerate() {
            let _step = tracer.open("rate_step", "serve", s as u64);
            let step_end = start + step_len[s];
            let swap_at = start + step_len[s] / 2;
            let mut swapped = false;
            let mut next_scrape = start;
            loop {
                let now = Instant::now();
                if now >= step_end {
                    break;
                }
                if !swapped && now >= swap_at {
                    let t = Instant::now();
                    tracer.span("swap_model", "serve", s as u64, || {
                        service.swap_model(served.net.clone())
                    })?;
                    swap_ms.push(ms_since(t));
                    swapped = true;
                }
                if now >= next_scrape {
                    let t = Instant::now();
                    let snapshot = tracer.span("metrics", "serve", 0, || service.metrics());
                    scrape_us.push(t.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(snapshot);
                    next_scrape += SCRAPE_EVERY;
                }
                let wake = next_scrape
                    .min(step_end)
                    .min(if swapped { step_end } else { swap_at });
                let now = Instant::now();
                if wake > now {
                    std::thread::sleep(wake - now);
                }
            }
        }
        let _drain = tracer.open("drain", "serve", 0);
        let mut done = generator.join().map_err(|_| "generator thread panicked")?;
        let (answered, hung) = harvester.join().map_err(|_| "harvester thread panicked")?;
        done.extend(answered);
        Ok((done, hung))
    })?;
    Ok(Pass {
        done,
        hung,
        step_len,
        scrape_us,
        swap_ms,
        max_queue_depth: service.metrics().max_queue_depth,
    })
}

/// Collects answers as they arrive. Blocks on the oldest outstanding
/// ticket for at most 1 ms, then takes every other ticket that has
/// answered meanwhile, so the thread sleeps instead of spinning.
/// Batches run in queue order, so the oldest ticket is nearly always
/// the next to answer; one that a second worker answers first is seen
/// at most 1 ms late. Returns the answers and the number of tickets
/// still unanswered at `give_up`.
fn harvest(rx: mpsc::Receiver<InFlight>, tracer: &Tracer, give_up: Instant) -> (Vec<Done>, usize) {
    let answer = |f: &InFlight, outcome| {
        let answered = Instant::now();
        tracer.record("request", "serve", f.id, f.due, answered);
        Done {
            step: f.step,
            image: f.image,
            due: f.due,
            submitted: f.submitted,
            answered,
            outcome,
        }
    };
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    let mut done = Vec::new();
    let mut open = true;
    loop {
        while open {
            match rx.try_recv() {
                Ok(f) => outstanding.push_back(f),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => open = false,
            }
        }
        let now = Instant::now();
        if now >= give_up {
            return (done, outstanding.len());
        }
        let Some(oldest) = outstanding.front() else {
            if !open {
                return (done, 0);
            }
            match rx.recv_timeout(give_up - now) {
                Ok(f) => outstanding.push_back(f),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        };
        // Wake at least every millisecond to admit new tickets.
        if let Some(outcome) = oldest.ticket.wait_timeout(Duration::from_millis(1)) {
            done.push(answer(oldest, outcome));
            outstanding.pop_front();
        }
        outstanding.retain(|f| match f.ticket.wait_timeout(Duration::ZERO) {
            Some(outcome) => {
                done.push(answer(f, outcome));
                false
            }
            None => true,
        });
    }
}

/// The median over a step's windows of each window's p99. Windows split
/// the step by due time and hold about [`WINDOW_REQUESTS`] requests (at
/// least 0.5 s), so every window's p99 has 10 samples beyond it. A
/// stall of the host's virtual CPU (tens of ms, seconds apart) lands in
/// one window and leaves the median to the others; a p99 over the whole
/// step instead reads those stalls' count, which repeats from run to run
/// no better than ±60%.
fn windowed_p99(in_step: &[&Done], lat: &[f64], rate: f64, step_len: Duration) -> Option<f64> {
    let first = in_step.first()?;
    let w = (WINDOW_REQUESTS / rate).max(0.5);
    let n = ((step_len.as_secs_f64() / w) as usize).max(1);
    let mut windows = vec![Vec::new(); n];
    for (d, &l) in in_step.iter().zip(lat) {
        let k = (d.due.duration_since(first.due).as_secs_f64() / w) as usize;
        windows[k.min(n - 1)].push(l);
    }
    let p99s: Vec<f64> = windows.iter().filter_map(|v| percentile(v, 99.0)).collect();
    (!p99s.is_empty()).then(|| median(&p99s))
}

fn latency_ms(d: &Done) -> f64 {
    d.answered.saturating_duration_since(d.due).as_secs_f64() * 1e3
}

/// Checks the answers and derives the end-to-end metrics.
fn evaluate(
    served: &Served,
    pass: &Pass,
    images: &[Tensor],
    seeds: &[u64],
    crafts: &Crafts,
    report: &mut Report,
) -> Res<Evaluated> {
    // Served predictions equal direct classification of the same
    // (image, seed).
    let mut net = served.net.clone();
    let expected: Vec<usize> = images
        .iter()
        .zip(seeds)
        .map(|(x, &seed)| -> Res<usize> {
            let train = FrameTrain::encode(
                x,
                ServeConfig::default().encoder,
                SNN.time_steps,
                &mut StdRng::seed_from_u64(seed),
            )?;
            Ok(net.classify_batch_fused(&[train])?[0])
        })
        .collect::<Res<_>>()?;
    let mut mismatched = 0usize;
    for d in &pass.done {
        if let Ok(r) = &d.outcome {
            if r.prediction != expected[d.image] {
                mismatched += 1;
            }
        }
    }
    report.ok(pass.done.len() as u64);
    report.check(
        mismatched == 0,
        &format!("{mismatched} served predictions differ from direct classify"),
    );
    report.check(
        pass.hung == 0,
        &format!("{} tickets never answered", pass.hung),
    );

    let mut max_rps = None;
    let mut reference = None;
    for (s, &rate) in LADDER_RPS.iter().enumerate() {
        let mut in_step: Vec<&Done> = pass.done.iter().filter(|d| d.step == s).collect();
        in_step.sort_by_key(|d| d.due);
        let failed = in_step.iter().filter(|d| d.outcome.is_err()).count();
        // A failed request misses any limit: it sorts last.
        let lat: Vec<f64> = in_step
            .iter()
            .map(|d| {
                if d.outcome.is_ok() {
                    latency_ms(d)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let p99 = windowed_p99(&in_step, &lat, rate, pass.step_len[s]);
        // Backlog: the last quarter of the step waits no longer than the
        // first quarter plus one coalescing window's worth of slack.
        let quarter = (in_step.len() / 4).max(1);
        let head = median(&lat[..quarter.min(lat.len())]);
        let tail = median(&lat[lat.len().saturating_sub(quarter)..]);
        let growing = tail > 2.0 * head + 5.0;
        // Answers per second over the step as it ran: from the step's
        // first due time to its last answer.
        let span_s = match (in_step.first(), in_step.iter().map(|d| d.answered).max()) {
            (Some(first), Some(last)) => last.saturating_duration_since(first.due).as_secs_f64(),
            _ => pass.step_len[s].as_secs_f64(),
        };
        let goodput = (in_step.len() - failed) as f64 / span_s.max(1e-9);
        let meets = !growing && p99.is_some_and(|p| p <= P99_LIMIT_MS);
        let deepest =
            tail_percentile(&lat).map_or("n/a".to_string(), |(p, v)| format!("p{p:.2}={v:.3} ms"));
        report.note(format!(
            "rate {rate:>6.0}/s: n={} failed={failed} p50={:.3} ms windowed p99={} step p99={} {deepest} head={head:.3} tail={tail:.3} goodput={goodput:.1}/s {}",
            in_step.len(),
            median(&lat),
            p99.map_or("n/a".to_string(), |p| format!("{p:.3} ms")),
            percentile(&lat, 99.0).map_or("n/a".to_string(), |p| format!("{p:.3} ms")),
            if meets { "meets" } else { "misses" }
        ));
        if meets {
            max_rps = Some(goodput);
        }
        if rate == REFERENCE_RPS {
            let of_kind = |attacked: bool| -> Vec<f64> {
                in_step
                    .iter()
                    .zip(&lat)
                    .filter(|(d, _)| (d.image % 2 == 1) == attacked)
                    .map(|(_, &l)| l)
                    .collect()
            };
            let (clean, attacked) = (of_kind(false), of_kind(true));
            report.note(format!(
                "reference rate: clean p50 {:.3} ms p90 {} ms, attacked p50 {:.3} ms p90 {} ms",
                median(&clean),
                percentile(&clean, 90.0).map_or("n/a".to_string(), |p| format!("{p:.3}")),
                median(&attacked),
                percentile(&attacked, 90.0).map_or("n/a".to_string(), |p| format!("{p:.3}")),
            ));
            reference = Some((
                clean,
                attacked,
                p99.ok_or("too few reference-rate samples for p99")?,
            ));
        }
    }
    let (clean, attacked, p99) = reference.ok_or("reference rate missing from the ladder")?;
    report.check(max_rps.is_some(), "no ladder rate met the p99 limit");
    report.note(format!(
        "generator lag max {:.3} ms",
        generator_lag_ms(pass)
    ));
    Ok(Evaluated {
        e2e: vec![
            ("clean_ms_p50", median(&clean), "ms"),
            ("attacked_ms_p50", median(&attacked), "ms"),
            ("craft_ms_p50", median(&crafts.craft_ms), "ms"),
        ],
        p99,
        max_rps: max_rps.unwrap_or(f64::NAN),
    })
}

/// What [`evaluate`] derives from a pass.
struct Evaluated {
    /// The end-to-end metrics.
    e2e: Metrics,
    /// Windowed p99 at the reference rate, ms.
    p99: f64,
    /// Goodput of the highest rate meeting the p99 limit.
    max_rps: f64,
}

fn generator_lag_ms(pass: &Pass) -> f64 {
    pass.done
        .iter()
        .map(|d| d.submitted.saturating_duration_since(d.due).as_secs_f64() * 1e3)
        .fold(0.0, f64::max)
}

/// Per-layer metrics of the traced pass, plus the reference-rate p99 of
/// the untraced pass (tracing the requests inflates the tail).
fn traced_metrics(
    tracer: &Tracer,
    pass: &Pass,
    crafts: &Crafts,
    spikes: f64,
    p99: f64,
    report: &mut Report,
) {
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
    report.metric("core.spikes_per_sample", spikes, "count");
    report.metric("attacks.query_ms", median(&crafts.call_ms), "ms");
    report.metric(
        "attacks.queries_per_craft",
        crafts.calls as f64 / crafts.craft_ms.len().max(1) as f64,
        "count",
    );
    let reference = LADDER_RPS
        .iter()
        .position(|&r| r == REFERENCE_RPS)
        .unwrap_or(0);
    let ok: Vec<(&Done, &Response)> = pass
        .done
        .iter()
        .filter(|d| d.step == reference)
        .filter_map(|d| d.outcome.as_ref().ok().map(|r| (d, r)))
        .collect();
    let wait: Vec<f64> = ok
        .iter()
        .map(|(_, r)| r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let service: Vec<f64> = ok
        .iter()
        .map(|(d, r)| latency_ms(d) - r.queue_wait.as_secs_f64() * 1e3)
        .collect();
    let batch: Vec<f64> = ok.iter().map(|(_, r)| r.batch_size as f64).collect();
    report.extra("serve.p99_ms", p99, "ms");
    report.extra("serve.queue_wait_ms_p50", median(&wait), "ms");
    report.extra(
        "serve.queue_wait_ms_p99",
        percentile(&wait, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    report.extra("serve.service_ms_p50", median(&service), "ms");
    report.extra(
        "serve.batch_size_mean",
        batch.iter().sum::<f64>() / batch.len().max(1) as f64,
        "count",
    );
    report.extra(
        "serve.max_queue_depth",
        pass.max_queue_depth as f64,
        "count",
    );
    report.extra("serve.scrape_us_p50", median(&pass.scrape_us), "us");
    report.extra("serve.swap_ms", median(&pass.swap_ms), "ms");
    report.extra("serve.generator_lag_ms_max", generator_lag_ms(pass), "ms");
}
