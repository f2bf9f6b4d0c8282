//! End-to-end benchmark of the paper's three pipelines, with per-crate
//! attribution from a separate traced run. See `README.md` for the
//! workloads, the metrics and what each optimisation should move.

pub mod adapters;
pub mod conv;
pub mod report;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use axsnn::tensor::Tensor;
use report::Report;
use stats::median;
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics with their units, as `BENCHMARK.json` lists
/// them: every workload reports each of them, and only them, untraced.
/// Each is a median per sample of that workload (an image, a request,
/// an event stream).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("clean_ms_p50", "ms"),
    ("attacked_ms_p50", "ms"),
    ("craft_ms_p50", "ms"),
];

/// Crates every workload calls; each one's self time is a per-layer
/// metric. The self time of a crate only some workloads call (`serve`,
/// `neuromorphic`) is a workload-specific extra.
pub const COMMON_CRATES: [&str; 5] = ["attacks", "bench", "core", "datasets", "defense"];

/// The per-layer metrics with their units, as `BENCHMARK.json` lists
/// them: every workload reports each of them, and only them, traced.
pub const PER_LAYER: [(&str, &str); 14] = [
    ("attacks.self_s", "s"),
    ("bench.self_s", "s"),
    ("core.self_s", "s"),
    ("datasets.self_s", "s"),
    ("defense.self_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("datasets.generate_s", "s"),
    ("core.train_s", "s"),
    ("core.convert_ms", "ms"),
    ("core.spikes_per_sample", "count"),
    ("attacks.query_ms", "ms"),
    ("attacks.queries_per_craft", "count"),
];

/// Result type of the workload runners.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Named metric values: `(name, value, unit)`.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Times a set-up of several seconds is repeated in an untraced run;
/// `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of one pass, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

/// `adv` lies in `[0, 1]` and within `eps` of `clean` in l∞.
pub fn in_ball(adv: &Tensor, clean: &Tensor, eps: f32) -> bool {
    adv.as_slice()
        .iter()
        .zip(clean.as_slice())
        .all(|(&a, &c)| (0.0..=1.0).contains(&a) && (a - c).abs() <= eps + 1e-6)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `setup` `repeats` times, keeping the last result and the median
/// wall time in seconds.
pub fn setup_repeats<T>(repeats: usize, mut setup: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        // Tear the previous set-up down outside the timed span.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// `true` when `report` holds exactly the manifest's metrics for the
/// run's mode, each once and in its unit.
pub fn matches_manifest(ctx: &Ctx, report: &Report) -> bool {
    let want: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<(&str, &str)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.as_str(), *u))
        .collect();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    got == want
}

/// Ends a traced run: reports per-crate self time over the workload's
/// root span (the first span), the share of wall time the crates
/// account for, and the tracing overhead — the median relative
/// worsening of the end-to-end metrics measured traced (`traced`)
/// against the same pass untraced (`plain`). Writes every span to
/// `.bench_traces/`.
pub fn finish_trace(
    ctx: &Ctx,
    tracer: &Tracer,
    plain: &Metrics,
    traced: &Metrics,
    report: &mut Report,
) -> Res<()> {
    let spans = tracer.spans();
    let wall_ns = spans
        .first()
        .ok_or("traced run recorded no spans")?
        .dur_ns() as f64;
    let per_crate = trace::crate_self_ns(&spans, 0);
    let mut crates_ns = 0.0;
    for (krate, ns) in &per_crate {
        let s = *ns as f64 / 1e9;
        if COMMON_CRATES.contains(krate) {
            report.metric(&format!("{krate}.self_s"), s, "s");
        } else {
            report.extra(&format!("{krate}.self_s"), s, "s");
        }
        if *krate != "bench" {
            crates_ns += *ns as f64;
        }
    }
    let coverage = crates_ns / wall_ns;
    report.metric("trace.coverage", coverage, "fraction");
    report.check(
        coverage >= 0.90,
        "crate self times cover less than 90% of the traced wall time",
    );
    let mut worse = Vec::new();
    for ((name, p, unit), (_, t, _)) in plain.iter().zip(traced) {
        let w = if *unit == "1/s" {
            p / t - 1.0
        } else {
            t / p - 1.0
        };
        report.note(format!(
            "overhead {name}: untraced {p:.6} traced {t:.6} ({:+.2}%)",
            100.0 * w
        ));
        worse.push(w);
    }
    report.metric("trace.overhead_pct", 100.0 * median(&worse), "%");
    report.metric("trace.spans", spans.len() as f64, "count");
    std::fs::create_dir_all(".bench_traces")?;
    let workload = spans[0].name;
    std::fs::write(
        format!(".bench_traces/{workload}-seed{}.json", ctx.seed),
        trace::spans_json(&spans),
    )?;
    Ok(())
}
