//! Consolidated perf-trajectory floors for the `BENCH_*.json` artifacts.
//!
//! PRs 1–4 each added a smoke benchmark whose speedup ratios CI gates;
//! the floors used to live as copy-pasted asserts inside each binary.
//! This module is now the **single place** they are documented and
//! enforced: the bench binaries only *emit* records, and the
//! `bench_gate` binary loads the emitted files, validates their schema,
//! and fails when any gated ratio regressed below its floor.
//!
//! The floors, by artifact:
//!
//! * `BENCH_sparse.json` — event-driven kernels ≥ **2×** dense at ≤10%
//!   spike density (full-network `network_*` records are
//!   informational).
//! * `BENCH_batch.json` — spike-plane GEMM (`linear_*`) and the fused
//!   batch-32 MLP forward ≥ **2×** sequential, the MLP forward
//!   additionally ≥ **3×**; `convnet_*` never loses (≥ **0.9×** —
//!   conv weights are cache-resident, there is nothing to amortize).
//! * `BENCH_train.json` — sparse BPTT tape ≥ **1.7×** the dense tape
//!   at ≤10% density on the weight-bound records (`mlp_tape_*`,
//!   `mlp_minibatch_*`); `conv_tape_*` ≥ **0.9×**. The floor was 2×
//!   from PR 3 through PR 9; the PR 10 SIMD layer accelerates the
//!   forward pass both tapes share more than the event tape's
//!   scatter-bound gradient accumulation, so the *ratio* compressed
//!   (to a stable 1.8–2.1× interleaved) even though both absolute
//!   times improved — the floor tracks the new baseline honestly
//!   rather than penalizing the faster denominator.
//! * `BENCH_backward.json` — the parallel minibatch backward
//!   (`mlp_parallel_backward_*`) ≥ **2×** sequential at 4 threads,
//!   enforced only when the runner's `hardware_threads` covers the
//!   measured thread count (a 1-core box cannot show parallel speedup —
//!   the gate reports a skip note instead); the thresholded
//!   input-gradient kernel (`matvec_t_thresholded_*`) ≥ **2×** dense at
//!   ≤10% surviving coefficients; its `eps = 0` exact mode
//!   (`matvec_t_eps0_*`) never regresses dense below **0.9×**.
//!   `conv_parallel_backward_*` is informational.
//! * `BENCH_conv_batch.json` — the event-sorted batched conv
//!   (`conv_batch_sorted_*`, PR 5) vs the row-by-row fused conv path:
//!   the paper-architecture **stack aggregate** and the k=5 layers ≥
//!   **1.5×** at ≤10% density and batch ≥ 32; the small k=3 layer and
//!   the end-to-end plan-selected network forward (`convnet_plan_*`)
//!   never regress (≥ **0.9×**). Both kernels are bit-identical and the
//!   A/B is single-threaded, so no hardware skip applies; records carry
//!   `hardware_threads` for observability. The
//!   `conv_dense_*` rows (absolute µs per call of `conv2d`,
//!   `conv2d_backward` and `sparse_conv2d_backward` on the paper's five
//!   conv layers) are informational: schema-checked, no floor.
//! * `BENCH_sweep.json` — the crash-safe sweep engine (PR 6):
//!   journaling the grid costs ≤ ~10% of a cold run
//!   (`sweep_journal_overhead_*` ≥ **0.9×**), and resuming a completed
//!   journal is pure replay, ≥ **10×** faster than re-running the grid
//!   (`sweep_resume_replay_*`).
//! * `BENCH_quant.json` — the reduced-precision weight planes (PR 8):
//!   both sides of every kernel A/B compute on the *same dequantized
//!   values* (bit-identical outputs), so the ratio isolates weight-
//!   storage bandwidth. The gather-bound sparse matvec at ≤10% density
//!   must show int8 ≥ **1.3×** f32 storage (`quant_matvec_int8_*`);
//!   f16 — paying a software half-to-float conversion per gathered
//!   element — must stay ≥ **0.6×** (`quant_matvec_f16_*`). With the
//!   PR 10 blocked dequantization (a fused decode-and-transpose builds
//!   the f32 weight panel once per row tile, then every admitted event
//!   streams against it) the GEMM and batched-conv records graduated
//!   from informational to gated: the f16 GEMM — whose F16C decode is
//!   one µop per 8 weights — must now **beat** f32 storage
//!   (`quant_gemm_f16_*` ≥ **1.0×**), while the int8 GEMM and both
//!   conv planes hold parity (≥ **0.9×**; the int8 LUT-gather decode
//!   costs about what this runner's generous cache bandwidth saves, so
//!   parity — up from 0.69× — is the honest floor). The planed MLP's
//!   predictions over 256 deterministic samples may disagree with its
//!   f32 twin by at most **5 percentage points** (`quant_accuracy_*`).
//! * `BENCH_serve.json` — the micro-batching inference service (PR 7):
//!   fused batched serving at concurrency ≥ 32 ≥ **3×** sequential
//!   per-request classify (`serve_throughput_*`; hardware-aware like
//!   the PR 4 parallel floor — skipped with a note when the runner has
//!   fewer hardware threads than service workers); the p99 end-to-end
//!   latency stays bounded at ≤ **64×** one direct classify, and the
//!   p50 at ≤ **1.2×** one direct classify (`serve_latency_*`; the p50
//!   floor is hardware-aware in the same way: workers that never wait
//!   for a batch to fill add only dispatch overhead to a lone request,
//!   which a coalescing window would not); and under injected worker
//!   panics plus expired-deadline bursts the service keeps goodput ≥ **0.5** of
//!   attempted submissions with **zero** hung requests and served
//!   predictions bit-identical to the direct fused path
//!   (`serve_robust_*`).
//!
//! * `BENCH_stream.json` — streaming DVS event inference (PR 9): both
//!   pipelines run the same per-window `FrameStepper` engine with
//!   bit-identical logits (pinned by the `stream_equivalence` suite),
//!   so the ratios isolate event-at-a-time delivery. Full-sample
//!   streamed classification never regresses offline
//!   accumulate-then-forward beyond per-event accumulator cost
//!   (`stream_classify_*` ≥ **0.8×**); the anytime first-window
//!   readout beats one full offline classify ≥ **2×**
//!   (`stream_first_window_*` — expected ~`time_steps`×, the floor is
//!   deliberately slack for noisy runners). The in-stream AQF A/B
//!   (`stream_aqf_*`) and the sustained event throughput
//!   (`stream_event_throughput_*`) are informational.
//!
//! * `BENCH_simd.json` — the runtime-dispatched AVX2 kernel layer
//!   (PR 10) vs the portable scalar truth path, bit-identical by the
//!   `simd_equivalence` suite. The floors are **hardware-aware twice
//!   over**: every record carries the detected `isa_features` and the
//!   `dispatch` the process actually selected, and SIMD-vs-scalar
//!   floors only apply to records whose dispatch was `avx2` (a scalar
//!   dispatch — `AXSNN_NO_SIMD=1` or a pre-AVX2 box — yields a skip
//!   note; an artifact that gates nothing still fails as vacuous, so a
//!   committed artifact must come from an AVX2 run). Under `avx2`
//!   dispatch: the paper-scale L1-resident `simd_matvec_96x128` ≥
//!   **1.5×** scalar at 5% density and ≥ **1.3×** at 10%; the batch-32
//!   `simd_gemm_*` panel kernel ≥ **1.5×** at 10% density and ≥
//!   **1.1×** at 5%; the blocked-dequantization `simd_gemm_planed_*` ≥
//!   **1.0×** the per-element lane decode; the B=1 event-sorted
//!   `simd_conv1_*` ≥ **1.5×** the per-event scatter; and the large
//!   cache-bandwidth-bound matvec shapes never regress (≥ **0.9×** —
//!   at 2 MB+ working sets both sides run at the cache-line-traffic
//!   limit of ~1 distinct line per gathered element, so there is no
//!   vector win to gate, only a no-loss guarantee).
//!
//! Renaming or dropping a gated record cannot silently disarm a floor:
//! every artifact kind declares the record families it must contain,
//! and a file missing one of them — or gating nothing at all — fails.

use crate::json::{self, Json};

/// Every enforced floor, one row per gated record family:
/// `(artifact, record family + gating condition, floor)`.
///
/// This is the machine-readable twin of the module-level floor
/// documentation; `bench_gate` prints it in full when any gate fails so
/// a regression report always carries the complete trajectory context.
pub const FLOOR_TABLE: &[(&str, &str, &str)] = &[
    (
        "BENCH_sparse.json",
        "linear_* at density <= 10%",
        ">= 2.0x dense",
    ),
    (
        "BENCH_batch.json",
        "linear_*, mlp_forward*",
        ">= 2.0x sequential",
    ),
    ("BENCH_batch.json", "mlp_forward*", ">= 3.0x sequential"),
    ("BENCH_batch.json", "convnet*", ">= 0.9x (no regression)"),
    (
        "BENCH_train.json",
        "mlp_tape*, mlp_minibatch* at density <= 10%",
        ">= 1.7x dense tape",
    ),
    ("BENCH_train.json", "conv_tape*", ">= 0.9x (no regression)"),
    (
        "BENCH_backward.json",
        "mlp_parallel_backward* (when hardware threads cover the run)",
        ">= 2.0x sequential",
    ),
    (
        "BENCH_backward.json",
        "matvec_t_thresholded* at active <= 10%",
        ">= 2.0x dense",
    ),
    (
        "BENCH_backward.json",
        "matvec_t_eps0*",
        ">= 0.9x (no regression)",
    ),
    (
        "BENCH_conv_batch.json",
        "conv_batch_sorted_* (k=5 + stack, density <= 10%, batch >= 32)",
        ">= 1.5x row-by-row",
    ),
    (
        "BENCH_conv_batch.json",
        "conv_batch_sorted_l3*, convnet_plan*",
        ">= 0.9x (no regression)",
    ),
    (
        "BENCH_sweep.json",
        "sweep_journal_overhead*",
        ">= 0.9x cold run",
    ),
    (
        "BENCH_sweep.json",
        "sweep_resume_replay*",
        ">= 10.0x cold run",
    ),
    (
        "BENCH_serve.json",
        "serve_throughput* (when hardware threads cover the workers)",
        ">= 3.0x sequential",
    ),
    (
        "BENCH_serve.json",
        "serve_latency* p99_over_direct",
        "<= 64x one direct classify",
    ),
    (
        "BENCH_serve.json",
        "serve_latency* p50_over_direct (when hardware threads cover the workers)",
        "<= 1.2x one direct classify",
    ),
    (
        "BENCH_serve.json",
        "serve_robust*",
        "0 hung, goodput >= 0.5, bit-identical predictions",
    ),
    (
        "BENCH_quant.json",
        "quant_matvec_int8* at density <= 10%",
        ">= 1.3x f32 storage",
    ),
    (
        "BENCH_quant.json",
        "quant_matvec_f16* at density <= 10%",
        ">= 0.6x f32 storage",
    ),
    (
        "BENCH_quant.json",
        "quant_gemm_f16* (blocked dequantization)",
        ">= 1.0x f32 storage",
    ),
    (
        "BENCH_quant.json",
        "quant_gemm_int8*, quant_conv_*",
        ">= 0.9x (parity)",
    ),
    (
        "BENCH_quant.json",
        "quant_accuracy* accuracy_delta_points",
        "<= 5.0 points vs f32",
    ),
    (
        "BENCH_simd.json",
        "simd_matvec_96x128* at avx2 dispatch",
        ">= 1.5x scalar at 5% density, >= 1.3x at 10%",
    ),
    (
        "BENCH_simd.json",
        "simd_gemm_* at avx2 dispatch",
        ">= 1.5x scalar at 10% density, >= 1.1x at 5%",
    ),
    (
        "BENCH_simd.json",
        "simd_gemm_planed_* at avx2 dispatch",
        ">= 1.0x per-element lane decode",
    ),
    (
        "BENCH_simd.json",
        "simd_conv1_* at avx2 dispatch",
        ">= 1.5x per-event scatter",
    ),
    (
        "BENCH_simd.json",
        "simd_matvec_* (cache-bandwidth-bound large shapes)",
        ">= 0.9x (no regression)",
    ),
    (
        "BENCH_stream.json",
        "stream_classify_*",
        ">= 0.8x offline pipeline (no regression)",
    ),
    (
        "BENCH_stream.json",
        "stream_first_window_*",
        ">= 2.0x one full offline classify",
    ),
];

/// Outcome of gating one bench artifact.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Records that carried an enforced floor.
    pub gated: usize,
    /// Records present in the file.
    pub total: usize,
    /// Floor violations and schema errors (non-empty ⇒ the gate fails).
    pub failures: Vec<String>,
    /// Informational notes (e.g. hardware-skipped gates).
    pub notes: Vec<String>,
    /// The ISA provenance of the artifact, when its records carry the
    /// shared `dispatch`/`isa_features` fields (every bin emits them
    /// since PR 10): `"avx2 dispatch on avx2,fma,f16c"`. `bench_gate`
    /// prints this next to each file so a floor number is never read
    /// without knowing what hardware and code path produced it.
    pub isa: Option<String>,
}

fn num(rec: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    rec.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric field \"{key}\""))
}

fn name_of(rec: &Json, ctx: &str) -> Result<String, String> {
    rec.get("name")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{ctx}: missing string field \"name\""))
}

fn require_fields(rec: &Json, fields: &[&str], ctx: &str, failures: &mut Vec<String>) {
    for key in fields {
        if let Err(e) = num(rec, key, ctx) {
            failures.push(e);
        }
    }
}

/// Validates one `BENCH_*.json` artifact against its schema and floors.
/// The artifact kind is inferred from the file name
/// (`sparse`/`batch`/`train`/`backward`).
///
/// # Errors
///
/// Returns a message when the file cannot be read or parsed, or its
/// kind is unknown; floor violations are reported through
/// [`GateReport::failures`] instead.
pub fn check_bench_file(path: &str) -> Result<GateReport, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read ({e})"))?;
    let doc = json::parse(&src).map_err(|e| format!("{path}: invalid JSON ({e})"))?;
    let records = doc
        .as_array()
        .ok_or_else(|| format!("{path}: expected a top-level array"))?;
    // Infer the kind from the file *name* only — directory components
    // like an artifact folder named "bench_batch/" must not win.
    // "conv_batch" must be probed before "batch": the former's file
    // name contains the latter.
    let file_name = std::path::Path::new(path)
        .file_name()
        .and_then(|f| f.to_str())
        .unwrap_or(path);
    let kind = [
        "conv_batch",
        "sparse",
        "batch",
        "train",
        "backward",
        "sweep",
        "serve",
        "quant",
        "stream",
        "simd",
    ]
    .into_iter()
    .find(|k| file_name.contains(k))
    .ok_or_else(|| format!("{path}: unknown bench artifact kind"))?;

    let mut report = GateReport {
        total: records.len(),
        ..GateReport::default()
    };
    if records.is_empty() {
        report.failures.push(format!("{path}: no records"));
        return Ok(report);
    }
    report.isa = records.iter().find_map(|r| {
        let dispatch = r.get("dispatch").and_then(Json::as_str)?;
        let features = r.get("isa_features").and_then(Json::as_str)?;
        Some(format!("{dispatch} dispatch on {features}"))
    });
    // Each artifact must carry the record families its floors anchor
    // on — emitter/gate name drift fails loudly instead of silently
    // un-gating a ratio.
    let expected: &[&str] = match kind {
        "sparse" => &["linear_"],
        "batch" => &["linear_", "mlp_forward", "convnet"],
        "train" => &["mlp_tape", "mlp_minibatch", "conv_tape"],
        "backward" => &[
            "mlp_parallel_backward",
            "matvec_t_thresholded",
            "matvec_t_eps0",
        ],
        "conv_batch" => &[
            "conv_batch_sorted_l",
            "conv_batch_sorted_stack",
            "convnet_plan",
        ],
        "sweep" => &["sweep_journal_overhead", "sweep_resume_replay"],
        "serve" => &["serve_throughput", "serve_latency", "serve_robust"],
        "quant" => &[
            "quant_matvec_int8",
            "quant_matvec_f16",
            "quant_gemm_int8",
            "quant_gemm_f16",
            "quant_conv_",
            "quant_accuracy",
        ],
        "stream" => &[
            "stream_classify",
            "stream_first_window",
            "stream_event_throughput",
        ],
        "simd" => &[
            "simd_matvec_96x128",
            "simd_matvec_",
            "simd_gemm_",
            "simd_gemm_planed",
            "simd_conv1",
        ],
        _ => &[],
    };
    for prefix in expected {
        let present = records.iter().any(|r| {
            r.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with(prefix))
        });
        if !present {
            report.failures.push(format!(
                "{path}: missing expected record family \"{prefix}*\""
            ));
        }
    }
    for (i, rec) in records.iter().enumerate() {
        let ctx = format!("{path}[{i}]");
        let name = match name_of(rec, &ctx) {
            Ok(n) => n,
            Err(e) => {
                report.failures.push(e);
                continue;
            }
        };
        let ctx = format!("{path}: {name}");
        let fail = |report: &mut GateReport, ratio: f64, floor: f64, what: &str| {
            report
                .failures
                .push(format!("{ctx}: {what} {ratio:.2}x < {floor}x"));
        };
        match kind {
            "sparse" => {
                require_fields(
                    rec,
                    &["density", "dense_ns", "sparse_ns", "speedup"],
                    &ctx,
                    &mut report.failures,
                );
                let density = num(rec, "density", &ctx).unwrap_or(1.0);
                let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                if density <= 0.10 && !name.starts_with("network_") {
                    report.gated += 1;
                    if speedup < 2.0 {
                        fail(&mut report, speedup, 2.0, "sparse kernel");
                    }
                }
            }
            "batch" => {
                require_fields(
                    rec,
                    &["density", "sequential_ns", "fused_ns", "speedup"],
                    &ctx,
                    &mut report.failures,
                );
                let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                if name.starts_with("linear_") || name.starts_with("mlp_forward") {
                    report.gated += 1;
                    if speedup < 2.0 {
                        fail(&mut report, speedup, 2.0, "fused batch");
                    }
                }
                if name.starts_with("mlp_forward") && speedup < 3.0 {
                    fail(&mut report, speedup, 3.0, "fused MLP forward");
                }
                if name.starts_with("convnet") {
                    report.gated += 1;
                    if speedup < 0.9 {
                        fail(&mut report, speedup, 0.9, "fused conv no-regression");
                    }
                }
            }
            "train" => {
                require_fields(
                    rec,
                    &["density", "dense_tape_ns", "sparse_tape_ns", "speedup"],
                    &ctx,
                    &mut report.failures,
                );
                let density = num(rec, "density", &ctx).unwrap_or(1.0);
                let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                if (name.starts_with("mlp_tape") || name.starts_with("mlp_minibatch"))
                    && density <= 0.10
                {
                    report.gated += 1;
                    // 2.0 until PR 10 — see the module doc: the SIMD
                    // layer sped up the shared forward, compressing the
                    // tape-vs-tape ratio while improving both sides.
                    if speedup < 1.7 {
                        fail(&mut report, speedup, 1.7, "sparse tape");
                    }
                }
                if name.starts_with("conv_tape") {
                    report.gated += 1;
                    if speedup < 0.9 {
                        fail(&mut report, speedup, 0.9, "conv tape no-regression");
                    }
                }
            }
            "backward" => {
                let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                if name.starts_with("mlp_parallel_backward")
                    || name.starts_with("conv_parallel_backward")
                {
                    require_fields(
                        rec,
                        &[
                            "threads",
                            "hardware_threads",
                            "sequential_ns",
                            "parallel_ns",
                            "speedup",
                        ],
                        &ctx,
                        &mut report.failures,
                    );
                    let threads = num(rec, "threads", &ctx).unwrap_or(0.0);
                    let hardware = num(rec, "hardware_threads", &ctx).unwrap_or(0.0);
                    if name.starts_with("mlp_parallel_backward") {
                        if hardware >= threads {
                            report.gated += 1;
                            if speedup < 2.0 {
                                fail(&mut report, speedup, 2.0, "parallel backward");
                            }
                        } else {
                            report.notes.push(format!(
                                "{ctx}: parallel floor skipped — {hardware} hardware \
                                 threads cannot show a {threads}-thread speedup"
                            ));
                        }
                    }
                } else if name.starts_with("matvec_t_thresholded") {
                    require_fields(
                        rec,
                        &["active_fraction", "dense_ns", "thresholded_ns", "speedup"],
                        &ctx,
                        &mut report.failures,
                    );
                    let active = num(rec, "active_fraction", &ctx).unwrap_or(1.0);
                    if active <= 0.10 {
                        report.gated += 1;
                        if speedup < 2.0 {
                            fail(&mut report, speedup, 2.0, "thresholded matvec_t");
                        }
                    }
                } else if name.starts_with("matvec_t_eps0") {
                    require_fields(
                        rec,
                        &["dense_ns", "thresholded_ns", "speedup"],
                        &ctx,
                        &mut report.failures,
                    );
                    report.gated += 1;
                    if speedup < 0.9 {
                        fail(&mut report, speedup, 0.9, "eps=0 no-regression");
                    }
                }
            }
            "conv_batch" if name.starts_with("conv_dense_") => {
                // Absolute per-call times of the dense conv kernels:
                // informational, no floor.
                require_fields(
                    rec,
                    &[
                        "density",
                        "hardware_threads",
                        "conv2d_us",
                        "conv2d_backward_us",
                        "sparse_conv2d_backward_us",
                    ],
                    &ctx,
                    &mut report.failures,
                );
            }
            "conv_batch" => {
                require_fields(
                    rec,
                    &[
                        "density",
                        "batch",
                        "hardware_threads",
                        "row_by_row_ns",
                        "sorted_ns",
                        "speedup",
                    ],
                    &ctx,
                    &mut report.failures,
                );
                let density = num(rec, "density", &ctx).unwrap_or(1.0);
                let batch = num(rec, "batch", &ctx).unwrap_or(0.0);
                let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                if name.starts_with("conv_batch_sorted_") {
                    report.gated += 1;
                    // The paper stack aggregate and its k=5 layers carry
                    // the 1.5× floor; the small k=3 layer only has to
                    // never regress.
                    let headline = density <= 0.10
                        && batch >= 32.0
                        && !name.starts_with("conv_batch_sorted_l3");
                    if headline {
                        if speedup < 1.5 {
                            fail(&mut report, speedup, 1.5, "event-sorted batched conv");
                        }
                    } else if speedup < 0.9 {
                        fail(&mut report, speedup, 0.9, "batched conv no-regression");
                    }
                } else if name.starts_with("convnet_plan") {
                    report.gated += 1;
                    if speedup < 0.9 {
                        fail(
                            &mut report,
                            speedup,
                            0.9,
                            "plan-selected conv no-regression",
                        );
                    }
                }
            }
            "sweep" => {
                let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                if name.starts_with("sweep_journal_overhead") {
                    require_fields(
                        rec,
                        &["cells", "cold_ns", "journaled_ns", "speedup"],
                        &ctx,
                        &mut report.failures,
                    );
                    report.gated += 1;
                    if speedup < 0.9 {
                        fail(&mut report, speedup, 0.9, "journal overhead no-regression");
                    }
                } else if name.starts_with("sweep_resume_replay") {
                    require_fields(
                        rec,
                        &["cells", "cold_ns", "resume_ns", "speedup"],
                        &ctx,
                        &mut report.failures,
                    );
                    report.gated += 1;
                    if speedup < 10.0 {
                        fail(&mut report, speedup, 10.0, "resume replay");
                    }
                }
            }
            "serve" => {
                if name.starts_with("serve_throughput") {
                    require_fields(
                        rec,
                        &[
                            "concurrency",
                            "workers",
                            "hardware_threads",
                            "sequential_ns",
                            "served_ns",
                            "speedup",
                        ],
                        &ctx,
                        &mut report.failures,
                    );
                    let workers = num(rec, "workers", &ctx).unwrap_or(f64::MAX);
                    let hardware = num(rec, "hardware_threads", &ctx).unwrap_or(0.0);
                    let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                    if hardware >= workers {
                        report.gated += 1;
                        if speedup < 3.0 {
                            fail(&mut report, speedup, 3.0, "batched serve throughput");
                        }
                    } else {
                        report.notes.push(format!(
                            "{ctx}: serve throughput floor skipped — {hardware} hardware \
                             threads cannot drive {workers} service workers"
                        ));
                    }
                } else if name.starts_with("serve_latency") {
                    require_fields(
                        rec,
                        &[
                            "workers",
                            "hardware_threads",
                            "direct_us",
                            "p50_us",
                            "p99_us",
                            "p50_over_direct",
                            "p99_over_direct",
                        ],
                        &ctx,
                        &mut report.failures,
                    );
                    let tail = num(rec, "p99_over_direct", &ctx).unwrap_or(f64::MAX);
                    report.gated += 1;
                    if tail > 64.0 {
                        report.failures.push(format!(
                            "{ctx}: p99 latency {tail:.1}x one direct classify exceeds the \
                             64x tail bound"
                        ));
                    }
                    let workers = num(rec, "workers", &ctx).unwrap_or(f64::MAX);
                    let hardware = num(rec, "hardware_threads", &ctx).unwrap_or(0.0);
                    let median = num(rec, "p50_over_direct", &ctx).unwrap_or(f64::MAX);
                    if hardware < workers {
                        report.notes.push(format!(
                            "{ctx}: serve p50 floor skipped — {hardware} hardware threads \
                             cannot drive {workers} service workers"
                        ));
                    } else if median > 1.2 {
                        report.failures.push(format!(
                            "{ctx}: p50 latency {median:.2}x one direct classify exceeds the \
                             1.2x median bound"
                        ));
                    }
                } else if name.starts_with("serve_robust") {
                    require_fields(
                        rec,
                        &[
                            "attempted",
                            "completed",
                            "hung",
                            "goodput_fraction",
                            "bit_identical",
                        ],
                        &ctx,
                        &mut report.failures,
                    );
                    let hung = num(rec, "hung", &ctx).unwrap_or(f64::MAX);
                    let goodput = num(rec, "goodput_fraction", &ctx).unwrap_or(0.0);
                    let bit_identical = num(rec, "bit_identical", &ctx).unwrap_or(0.0);
                    report.gated += 1;
                    if hung > 0.0 {
                        report
                            .failures
                            .push(format!("{ctx}: {hung} hung requests (must be 0)"));
                    }
                    if goodput < 0.5 {
                        report.failures.push(format!(
                            "{ctx}: goodput {goodput:.2} under chaos below the 0.5 floor"
                        ));
                    }
                    if bit_identical < 1.0 {
                        report.failures.push(format!(
                            "{ctx}: served predictions diverged from the direct fused path \
                             (bit_identical {bit_identical})"
                        ));
                    }
                }
            }
            "quant" => {
                if name.starts_with("quant_accuracy") {
                    require_fields(
                        rec,
                        &["samples", "agreement_pct", "accuracy_delta_points"],
                        &ctx,
                        &mut report.failures,
                    );
                    let delta = num(rec, "accuracy_delta_points", &ctx).unwrap_or(f64::MAX);
                    report.gated += 1;
                    if delta > 5.0 {
                        report.failures.push(format!(
                            "{ctx}: planed predictions disagree with f32 by {delta:.1} \
                             points, exceeding the 5.0-point ceiling"
                        ));
                    }
                } else {
                    require_fields(
                        rec,
                        &[
                            "density",
                            "bits_per_weight",
                            "hardware_threads",
                            "f32_ns",
                            "planed_ns",
                            "speedup",
                        ],
                        &ctx,
                        &mut report.failures,
                    );
                    let density = num(rec, "density", &ctx).unwrap_or(1.0);
                    let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                    // The gather-bound matvec is the headline; the PR 10
                    // blocked dequantization promoted the GEMM and conv
                    // records from informational to gated — the f16 GEMM
                    // must beat f32 storage outright, the int8 GEMM and
                    // both conv planes hold parity.
                    if name.starts_with("quant_matvec_int8") && density <= 0.10 {
                        report.gated += 1;
                        if speedup < 1.3 {
                            fail(&mut report, speedup, 1.3, "int8 weight-plane matvec");
                        }
                    } else if name.starts_with("quant_matvec_f16") && density <= 0.10 {
                        report.gated += 1;
                        if speedup < 0.6 {
                            fail(&mut report, speedup, 0.6, "f16 weight-plane matvec");
                        }
                    } else if name.starts_with("quant_gemm_f16") {
                        report.gated += 1;
                        if speedup < 1.0 {
                            fail(&mut report, speedup, 1.0, "f16 blocked-dequantization GEMM");
                        }
                    } else if name.starts_with("quant_gemm_int8") || name.starts_with("quant_conv_")
                    {
                        report.gated += 1;
                        if speedup < 0.9 {
                            fail(&mut report, speedup, 0.9, "planed kernel parity");
                        }
                    }
                }
            }
            "stream" => {
                if name.starts_with("stream_event_throughput") {
                    require_fields(
                        rec,
                        &["events", "streamed_ns", "events_per_sec"],
                        &ctx,
                        &mut report.failures,
                    );
                } else {
                    require_fields(
                        rec,
                        &[
                            "events",
                            "windows",
                            "hardware_threads",
                            "offline_ns",
                            "streamed_ns",
                            "speedup",
                        ],
                        &ctx,
                        &mut report.failures,
                    );
                    let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                    // The streamed/offline A/B is bit-identical and
                    // single-threaded; the AQF A/B compares two
                    // *different* filters and stays informational.
                    if name.starts_with("stream_classify") {
                        report.gated += 1;
                        if speedup < 0.8 {
                            fail(&mut report, speedup, 0.8, "streamed classify no-regression");
                        }
                    } else if name.starts_with("stream_first_window") {
                        report.gated += 1;
                        if speedup < 2.0 {
                            fail(&mut report, speedup, 2.0, "first-window anytime readout");
                        }
                    }
                }
            }
            "simd" => {
                require_fields(
                    rec,
                    &[
                        "density",
                        "hardware_threads",
                        "scalar_ns",
                        "simd_ns",
                        "speedup",
                    ],
                    &ctx,
                    &mut report.failures,
                );
                // SIMD-vs-scalar floors only make sense when the process
                // actually dispatched to the vector path; a scalar
                // dispatch (AXSNN_NO_SIMD=1 or a pre-AVX2 box) is a skip,
                // and an artifact whose every record skipped still fails
                // the vacuous-gate check below.
                let dispatch = rec.get("dispatch").and_then(Json::as_str).unwrap_or("");
                if dispatch != "avx2" {
                    report.notes.push(format!(
                        "{ctx}: SIMD floor skipped — dispatch was \"{dispatch}\", not avx2"
                    ));
                } else {
                    let density = num(rec, "density", &ctx).unwrap_or(1.0);
                    let speedup = num(rec, "speedup", &ctx).unwrap_or(0.0);
                    if name.starts_with("simd_matvec_96x128") {
                        report.gated += 1;
                        let floor = if density <= 0.05 { 1.5 } else { 1.3 };
                        if speedup < floor {
                            fail(&mut report, speedup, floor, "L1-resident SIMD matvec");
                        }
                    } else if name.starts_with("simd_matvec_") {
                        // Cache-bandwidth-bound large shapes: both sides
                        // run at the line-traffic limit, so only a
                        // no-regression guarantee applies.
                        report.gated += 1;
                        if speedup < 0.9 {
                            fail(
                                &mut report,
                                speedup,
                                0.9,
                                "bandwidth-bound matvec no-regression",
                            );
                        }
                    } else if name.starts_with("simd_gemm_planed") {
                        report.gated += 1;
                        if speedup < 1.0 {
                            fail(&mut report, speedup, 1.0, "blocked-dequantization GEMM");
                        }
                    } else if name.starts_with("simd_gemm_") {
                        report.gated += 1;
                        let floor = if density >= 0.10 { 1.5 } else { 1.1 };
                        if speedup < floor {
                            fail(&mut report, speedup, floor, "SIMD panel GEMM");
                        }
                    } else if name.starts_with("simd_conv1") {
                        report.gated += 1;
                        if speedup < 1.5 {
                            fail(&mut report, speedup, 1.5, "event-sorted B=1 conv");
                        }
                    }
                }
            }
            _ => unreachable!("kind matched above"),
        }
    }
    if report.gated == 0 {
        report.failures.push(format!(
            "{path}: no record carried an enforced floor — the gate would be vacuous"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{write_bench_json, BenchRow};

    fn tmp(name: &str, rows: &[BenchRow]) -> String {
        let path = std::env::temp_dir().join(name);
        let path = path.to_str().unwrap().to_string();
        write_bench_json(&path, rows).unwrap();
        path
    }

    fn matvec_rows() -> Vec<BenchRow> {
        vec![
            BenchRow::new()
                .str("name", "matvec_t_thresholded_512x1568")
                .num("active_fraction", 0.10, 2)
                .num("dense_ns", 100.0, 0)
                .num("thresholded_ns", 10.0, 0)
                .num("speedup", 10.0, 3),
            BenchRow::new()
                .str("name", "matvec_t_eps0_512x1568")
                .num("dense_ns", 100.0, 0)
                .num("thresholded_ns", 100.0, 0)
                .num("speedup", 1.0, 3),
        ]
    }

    #[test]
    fn sparse_floor_enforced() {
        let path = tmp(
            "axsnn_gate_sparse.json",
            &[
                BenchRow::new()
                    .str("name", "linear_1568_to_256")
                    .num("density", 0.05, 2)
                    .num("dense_ns", 100.0, 0)
                    .num("sparse_ns", 60.0, 0)
                    .num("speedup", 1.67, 3),
                BenchRow::new()
                    .str("name", "network_forward")
                    .num("density", 0.10, 2)
                    .num("dense_ns", 100.0, 0)
                    .num("sparse_ns", 90.0, 0)
                    .num("speedup", 1.1, 3),
            ],
        );
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.gated, 1, "network_* records stay informational");
        assert_eq!(report.failures.len(), 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn backward_parallel_floor_is_hardware_aware() {
        let rows = |hardware: f64, speedup: f64| {
            let mut rows = vec![BenchRow::new()
                .str("name", "mlp_parallel_backward_B16_T8")
                .num("threads", 4.0, 0)
                .num("hardware_threads", hardware, 0)
                .num("sequential_ns", 100.0, 0)
                .num("parallel_ns", 100.0 / speedup, 0)
                .num("speedup", speedup, 3)];
            rows.extend(matvec_rows());
            rows
        };
        // Enough cores + slow parallel path ⇒ failure.
        let path = tmp("axsnn_gate_backward_a.json", &rows(8.0, 1.2));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1);
        let _ = std::fs::remove_file(path);
        // One core ⇒ skip note, no failure.
        let path = tmp("axsnn_gate_backward_b.json", &rows(1.0, 1.0));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty());
        assert_eq!(report.notes.len(), 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn kind_inferred_from_file_name_not_directory() {
        // A backward artifact inside a directory named after another
        // bench (the CI artifact-download layout) must classify as
        // backward, not batch.
        let dir = std::env::temp_dir().join("bench_batch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_backward.json");
        let path = path.to_str().unwrap().to_string();
        write_bench_json(&path, &matvec_rows()).unwrap();
        let report = check_bench_file(&path).unwrap();
        // Classified as backward: the matvec records gate cleanly, and
        // the only complaint is the genuinely absent parallel family —
        // never a batch-schema error.
        assert_eq!(report.gated, 2);
        assert!(
            report
                .failures
                .iter()
                .all(|f| f.contains("missing expected record family")),
            "misclassified as batch: {:?}",
            report.failures
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(dir);
    }

    fn conv_batch_rows(stack_speedup: f64) -> Vec<BenchRow> {
        let rec = |name: &str, speedup: f64| {
            BenchRow::new()
                .str("name", name)
                .num("density", 0.10, 2)
                .num("batch", 32.0, 0)
                .num("hardware_threads", 1.0, 0)
                .num("row_by_row_ns", 100.0 * speedup, 0)
                .num("sorted_ns", 100.0, 0)
                .num("speedup", speedup, 3)
        };
        vec![
            rec("conv_batch_sorted_l1_1to8_k5_28x28_B32", 2.5),
            rec("conv_batch_sorted_l3_16to16_k3_7x7_B32", 1.2),
            rec("conv_batch_sorted_stack_B32", stack_speedup),
            rec("convnet_plan_forward_T16_28x28_B32", 1.1),
        ]
    }

    #[test]
    fn conv_batch_floors_enforced() {
        // The stack aggregate carries the 1.5× headline floor...
        let path = tmp("axsnn_gate_conv_batch_a.json", &conv_batch_rows(1.3));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("1.5"));
        let _ = std::fs::remove_file(path);
        // ...and passing rows gate cleanly (the k=3 layer is only held
        // to the 0.9× no-regression floor).
        let path = tmp("axsnn_gate_conv_batch_b.json", &conv_batch_rows(2.0));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 4);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn conv_dense_rows_are_schema_checked_but_ungated() {
        let dense = |with_backward: bool| {
            let row = BenchRow::new()
                .str("name", "conv_dense_mnist_l1_1to8_k5_28x28")
                .num("density", 0.10, 2)
                .num("hardware_threads", 1.0, 0)
                .num("conv2d_us", 50.0, 1)
                .num("sparse_conv2d_backward_us", 70.0, 1);
            if with_backward {
                row.num("conv2d_backward_us", 140.0, 1)
            } else {
                row
            }
        };
        let mut rows = conv_batch_rows(2.0);
        rows.push(dense(true));
        let path = tmp("axsnn_gate_conv_batch_dense_a.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 4);
        let _ = std::fs::remove_file(path);

        let mut rows = conv_batch_rows(2.0);
        rows.push(dense(false));
        let path = tmp("axsnn_gate_conv_batch_dense_b.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("conv2d_backward_us"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn conv_batch_kind_wins_over_batch_in_file_name() {
        // "BENCH_conv_batch.json" contains "batch" too; the kind probe
        // must classify it as conv_batch, not batch.
        let path = tmp("BENCH_conv_batch.json", &conv_batch_rows(2.0));
        let report = check_bench_file(&path).unwrap();
        assert!(
            report.failures.is_empty(),
            "misclassified as batch: {:?}",
            report.failures
        );
        let _ = std::fs::remove_file(path);
    }

    fn sweep_rows(overhead_speedup: f64, replay_speedup: f64) -> Vec<BenchRow> {
        vec![
            BenchRow::new()
                .str("name", "sweep_journal_overhead_32cells")
                .num("cells", 32.0, 0)
                .num("cold_ns", 100.0, 0)
                .num("journaled_ns", 100.0 / overhead_speedup, 0)
                .num("speedup", overhead_speedup, 3),
            BenchRow::new()
                .str("name", "sweep_resume_replay_32cells")
                .num("cells", 32.0, 0)
                .num("cold_ns", 100.0, 0)
                .num("resume_ns", 100.0 / replay_speedup, 0)
                .num("speedup", replay_speedup, 3),
        ]
    }

    #[test]
    fn sweep_floors_enforced() {
        // Journal overhead above 10% of a cold run fails...
        let path = tmp("BENCH_sweep_a.json", &sweep_rows(0.8, 50.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("journal overhead"));
        let _ = std::fs::remove_file(path);
        // ...as does a slow resume replay...
        let path = tmp("BENCH_sweep_b.json", &sweep_rows(0.95, 4.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("resume replay"));
        let _ = std::fs::remove_file(path);
        // ...and healthy rows gate cleanly.
        let path = tmp("BENCH_sweep_c.json", &sweep_rows(0.98, 400.0));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 2);
        let _ = std::fs::remove_file(path);
    }

    fn serve_rows(
        speedup: f64,
        tail: f64,
        hung: f64,
        goodput: f64,
        identical: f64,
    ) -> Vec<BenchRow> {
        serve_rows_with_median(speedup, tail, 0.95, 8.0, hung, goodput, identical)
    }

    fn serve_rows_with_median(
        speedup: f64,
        tail: f64,
        median: f64,
        hardware_threads: f64,
        hung: f64,
        goodput: f64,
        identical: f64,
    ) -> Vec<BenchRow> {
        vec![
            BenchRow::new()
                .str("name", "serve_throughput_c32")
                .num("concurrency", 32.0, 0)
                .num("workers", 2.0, 0)
                .num("hardware_threads", 8.0, 0)
                .num("sequential_ns", 100.0 * speedup, 0)
                .num("served_ns", 100.0, 0)
                .num("speedup", speedup, 3),
            BenchRow::new()
                .str("name", "serve_latency_steady")
                .num("workers", 2.0, 0)
                .num("hardware_threads", hardware_threads, 0)
                .num("direct_us", 100.0, 0)
                .num("p50_us", 100.0 * median, 0)
                .num("p99_us", 100.0 * tail, 0)
                .num("p50_over_direct", median, 2)
                .num("p99_over_direct", tail, 2),
            BenchRow::new()
                .str("name", "serve_robust_chaos")
                .num("attempted", 180.0, 0)
                .num("completed", goodput * 180.0, 0)
                .num("hung", hung, 0)
                .num("goodput_fraction", goodput, 3)
                .num("bit_identical", identical, 0),
        ]
    }

    #[test]
    fn serve_floors_enforced() {
        // Healthy rows gate cleanly.
        let path = tmp("BENCH_serve_a.json", &serve_rows(4.0, 10.0, 0.0, 0.9, 1.0));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 3);
        let _ = std::fs::remove_file(path);
        // Throughput below 3x fails.
        let path = tmp("BENCH_serve_b.json", &serve_rows(2.0, 10.0, 0.0, 0.9, 1.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("3x"));
        let _ = std::fs::remove_file(path);
        // An unbounded p99 tail fails.
        let path = tmp("BENCH_serve_c.json", &serve_rows(4.0, 100.0, 0.0, 0.9, 1.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("tail bound"));
        let _ = std::fs::remove_file(path);
        // Hung requests, low goodput and divergent predictions all fail.
        let path = tmp("BENCH_serve_d.json", &serve_rows(4.0, 10.0, 2.0, 0.3, 0.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn serve_throughput_floor_is_hardware_aware() {
        // A 1-thread runner cannot drive 2 service workers: the
        // throughput floor is skipped with a note, the other serve
        // records still gate.
        let mut rows = serve_rows(1.0, 10.0, 0.0, 0.9, 1.0);
        rows[0] = BenchRow::new()
            .str("name", "serve_throughput_c32")
            .num("concurrency", 32.0, 0)
            .num("workers", 2.0, 0)
            .num("hardware_threads", 1.0, 0)
            .num("sequential_ns", 100.0, 0)
            .num("served_ns", 100.0, 0)
            .num("speedup", 1.0, 3);
        let path = tmp("BENCH_serve_hw.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.notes.len(), 1);
        assert_eq!(report.gated, 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn serve_p50_floor_is_enforced_and_hardware_aware() {
        // A lone request waiting on a coalescing window reads well above
        // one direct classify: the median floor fails it.
        let rows = serve_rows_with_median(4.0, 10.0, 1.29, 8.0, 0.0, 0.9, 1.0);
        let path = tmp("BENCH_serve_p50_a.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("1.2x median bound"));
        let _ = std::fs::remove_file(path);
        // At the floor it passes.
        let rows = serve_rows_with_median(4.0, 10.0, 1.2, 8.0, 0.0, 0.9, 1.0);
        let path = tmp("BENCH_serve_p50_b.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let _ = std::fs::remove_file(path);
        // Fewer hardware threads than workers: skipped with a note (the
        // throughput floor in the same file still gates).
        let rows = serve_rows_with_median(4.0, 10.0, 3.0, 1.0, 0.0, 0.9, 1.0);
        let path = tmp("BENCH_serve_p50_c.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
        assert!(report.notes[0].contains("p50 floor skipped"));
        assert_eq!(report.gated, 3);
        let _ = std::fs::remove_file(path);
        // A record without the median fails its field check.
        let mut rows = serve_rows(4.0, 10.0, 0.0, 0.9, 1.0);
        rows[1] = BenchRow::new()
            .str("name", "serve_latency_steady")
            .num("workers", 2.0, 0)
            .num("hardware_threads", 8.0, 0)
            .num("direct_us", 100.0, 0)
            .num("p50_us", 95.0, 0)
            .num("p99_us", 1000.0, 0)
            .num("p99_over_direct", 10.0, 2);
        let path = tmp("BENCH_serve_p50_d.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("p50_over_direct")),
            "{:?}",
            report.failures
        );
        let _ = std::fs::remove_file(path);
    }

    fn quant_rows(int8_speedup: f64, delta: f64) -> Vec<BenchRow> {
        let kernel = |name: &str, bits: f64, speedup: f64| {
            BenchRow::new()
                .str("name", name)
                .num("density", 0.10, 2)
                .num("bits_per_weight", bits, 0)
                .num("hardware_threads", 1.0, 0)
                .num("f32_ns", 100.0 * speedup, 0)
                .num("planed_ns", 100.0, 0)
                .num("speedup", speedup, 3)
        };
        vec![
            kernel("quant_matvec_int8_1024x4096", 8.0, int8_speedup),
            kernel("quant_matvec_f16_1024x4096", 16.0, 0.8),
            kernel("quant_gemm_int8_512x2048_B32", 8.0, 0.95),
            kernel("quant_gemm_f16_512x2048_B32", 16.0, 1.1),
            kernel("quant_conv_int8_8to16_k5_14x14_B32", 8.0, 1.0),
            kernel("quant_conv_f16_8to16_k5_14x14_B32", 16.0, 0.97),
            BenchRow::new()
                .str("name", "quant_accuracy_int8_mlp64x48x10")
                .num("samples", 256.0, 0)
                .num("agreement_pct", 100.0 - delta, 2)
                .num("accuracy_delta_points", delta, 2),
        ]
    }

    #[test]
    fn quant_floors_enforced() {
        // An int8 matvec below 1.3× fails.
        let path = tmp("BENCH_quant_a.json", &quant_rows(1.1, 0.5));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("1.3"));
        let _ = std::fs::remove_file(path);
        // A planed model drifting more than 5 points from f32 fails.
        let path = tmp("BENCH_quant_b.json", &quant_rows(2.0, 7.5));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("5.0-point"));
        let _ = std::fs::remove_file(path);
        // Healthy rows gate cleanly: both matvec planes, the promoted
        // GEMM/conv records, and accuracy.
        let path = tmp("BENCH_quant_c.json", &quant_rows(2.0, 0.5));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 7);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn quant_promoted_gemm_conv_floors_enforced() {
        // The PR 10 promotion: an f16 GEMM below parity-with-f32 fails,
        // as do int8 GEMM / conv planes below the 0.9× parity floor.
        let kernel = |name: &str, bits: f64, speedup: f64| {
            BenchRow::new()
                .str("name", name)
                .num("density", 0.10, 2)
                .num("bits_per_weight", bits, 0)
                .num("hardware_threads", 1.0, 0)
                .num("f32_ns", 100.0 * speedup, 0)
                .num("planed_ns", 100.0, 0)
                .num("speedup", speedup, 3)
        };
        let rows = vec![
            kernel("quant_matvec_int8_1024x4096", 8.0, 2.0),
            kernel("quant_matvec_f16_1024x4096", 16.0, 0.8),
            kernel("quant_gemm_int8_512x2048_B32", 8.0, 0.7),
            kernel("quant_gemm_f16_512x2048_B32", 16.0, 0.95),
            kernel("quant_conv_int8_8to16_k5_14x14_B32", 8.0, 0.8),
            kernel("quant_conv_f16_8to16_k5_14x14_B32", 16.0, 1.0),
            BenchRow::new()
                .str("name", "quant_accuracy_int8_mlp64x48x10")
                .num("samples", 256.0, 0)
                .num("agreement_pct", 99.5, 2)
                .num("accuracy_delta_points", 0.5, 2),
        ];
        let path = tmp("BENCH_quant_promoted.json", &rows);
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("blocked-dequantization GEMM") && f.contains("1x")),
            "{:?}",
            report.failures
        );
        assert!(
            report
                .failures
                .iter()
                .filter(|f| f.contains("planed kernel parity"))
                .count()
                == 2,
            "{:?}",
            report.failures
        );
        let _ = std::fs::remove_file(path);
    }

    fn simd_rows(dispatch: &str, gemm_d10: f64) -> Vec<BenchRow> {
        let rec = |name: &str, density: f64, speedup: f64| {
            BenchRow::new()
                .str("name", name)
                .str("isa_features", "avx2,fma,f16c")
                .str("dispatch", dispatch)
                .num("density", density, 2)
                .num("hardware_threads", 1.0, 0)
                .num("scalar_ns", 100.0 * speedup, 0)
                .num("simd_ns", 100.0, 0)
                .num("speedup", speedup, 3)
        };
        vec![
            rec("simd_matvec_96x128_d05", 0.05, 1.7),
            rec("simd_matvec_96x128_d10", 0.10, 1.4),
            rec("simd_matvec_512x1024_d10", 0.10, 1.0),
            rec("simd_gemm_512x1024_B32_d05", 0.05, 1.3),
            rec("simd_gemm_512x1024_B32_d10", 0.10, gemm_d10),
            rec("simd_gemm_planed_int8_512x1024_B32", 0.10, 2.0),
            rec("simd_gemm_planed_f16_512x1024_B32", 0.10, 6.0),
            rec("simd_conv1_8to16_k5_14x14_d10", 0.10, 1.9),
        ]
    }

    #[test]
    fn simd_floors_enforced() {
        // Healthy avx2-dispatch rows gate cleanly — every record
        // carries a floor (the large matvec only no-regression).
        let path = tmp("BENCH_simd_a.json", &simd_rows("avx2", 1.7));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 8);
        let _ = std::fs::remove_file(path);
        // A panel GEMM below 1.5× at 10% density fails.
        let path = tmp("BENCH_simd_b.json", &simd_rows("avx2", 1.2));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("SIMD panel GEMM"));
        assert!(report.failures[0].contains("1.5"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn simd_floors_skip_on_scalar_dispatch() {
        // A scalar-dispatch artifact (AXSNN_NO_SIMD=1 or a pre-AVX2
        // box) skips every SIMD floor with a note — and therefore
        // fails the vacuous-gate check, so a committed BENCH_simd.json
        // must come from an AVX2 run.
        let path = tmp("BENCH_simd_scalar.json", &simd_rows("scalar", 1.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.gated, 0);
        assert_eq!(report.notes.len(), 8, "{:?}", report.notes);
        assert!(report.notes[0].contains("dispatch"));
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("vacuous"));
        let _ = std::fs::remove_file(path);
    }

    fn stream_rows(classify_speedup: f64, first_window_speedup: f64) -> Vec<BenchRow> {
        let ab = |name: &str, windows: f64, speedup: f64| {
            BenchRow::new()
                .str("name", name)
                .num("events", 10_000.0, 0)
                .num("windows", windows, 0)
                .num("hardware_threads", 1.0, 0)
                .num("offline_ns", 100.0 * speedup, 0)
                .num("streamed_ns", 100.0, 0)
                .num("speedup", speedup, 3)
        };
        vec![
            ab(
                "stream_classify_uniform_T16_10000ev",
                16.0,
                classify_speedup,
            ),
            ab("stream_first_window_T16_10000ev", 1.0, first_window_speedup),
            ab("stream_aqf_uniform_T16_10000ev", 16.0, 0.3),
            BenchRow::new()
                .str("name", "stream_event_throughput_50000ev")
                .num("events", 50_000.0, 0)
                .num("streamed_ns", 9e6, 0)
                .num("events_per_sec", 5.5e6, 0),
        ]
    }

    #[test]
    fn stream_floors_enforced() {
        // A streamed classify regressing below 0.8x offline fails...
        let path = tmp("BENCH_stream_a.json", &stream_rows(0.6, 10.0));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("streamed classify"));
        let _ = std::fs::remove_file(path);
        // ...as does a first-window readout slower than half a full
        // offline classify...
        let path = tmp("BENCH_stream_b.json", &stream_rows(0.95, 1.4));
        let report = check_bench_file(&path).unwrap();
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("first-window"));
        let _ = std::fs::remove_file(path);
        // ...and healthy rows gate cleanly; the slow AQF A/B row is
        // informational and never gates.
        let path = tmp("BENCH_stream_c.json", &stream_rows(0.95, 10.0));
        let report = check_bench_file(&path).unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.gated, 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn floor_table_covers_every_expected_family() {
        // Every record family an artifact kind requires must appear in
        // the printable floor table (or be explicitly informational),
        // so `bench_gate`'s failure report always shows the floor that
        // applies to a family.
        let kinds: &[(&str, &[&str])] = &[
            ("BENCH_sparse.json", &["linear_"]),
            ("BENCH_batch.json", &["linear_", "mlp_forward", "convnet"]),
            (
                "BENCH_train.json",
                &["mlp_tape", "mlp_minibatch", "conv_tape"],
            ),
            (
                "BENCH_backward.json",
                &[
                    "mlp_parallel_backward",
                    "matvec_t_thresholded",
                    "matvec_t_eps0",
                ],
            ),
            (
                "BENCH_conv_batch.json",
                &["conv_batch_sorted_", "convnet_plan"],
            ),
            (
                "BENCH_sweep.json",
                &["sweep_journal_overhead", "sweep_resume_replay"],
            ),
            (
                "BENCH_serve.json",
                &["serve_throughput", "serve_latency", "serve_robust"],
            ),
            (
                "BENCH_quant.json",
                &[
                    "quant_matvec_int8",
                    "quant_matvec_f16",
                    "quant_gemm_int8",
                    "quant_gemm_f16",
                    "quant_conv_",
                    "quant_accuracy",
                ],
            ),
            (
                "BENCH_stream.json",
                &["stream_classify", "stream_first_window"],
            ),
            (
                "BENCH_simd.json",
                &[
                    "simd_matvec_96x128",
                    "simd_matvec_",
                    "simd_gemm_",
                    "simd_gemm_planed",
                    "simd_conv1",
                ],
            ),
        ];
        for (artifact, families) in kinds {
            for family in *families {
                assert!(
                    FLOOR_TABLE
                        .iter()
                        .any(|(a, f, _)| a == artifact && f.contains(family)),
                    "floor table misses {artifact} family {family}*"
                );
            }
        }
        for (artifact, family, floor) in FLOOR_TABLE {
            assert!(!artifact.is_empty() && !family.is_empty() && !floor.is_empty());
        }
    }

    #[test]
    fn renamed_gated_record_fails_loudly() {
        let path = tmp(
            "axsnn_gate_backward_renamed.json",
            &[BenchRow::new()
                .str("name", "renamed_backward_record")
                .num("speedup", 9.9, 3)],
        );
        let report = check_bench_file(&path).unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("missing expected record family")),
            "renaming a gated record must fail: {:?}",
            report.failures
        );
        assert!(
            report.failures.iter().any(|f| f.contains("vacuous")),
            "an artifact gating nothing must fail: {:?}",
            report.failures
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn schema_violations_fail() {
        let path = tmp(
            "axsnn_gate_train.json",
            &[BenchRow::new()
                .str("name", "mlp_tape_step")
                .num("speedup", 5.0, 3)],
        );
        let report = check_bench_file(&path).unwrap();
        assert!(
            report.failures.iter().any(|f| f.contains("density")),
            "missing fields must be reported: {:?}",
            report.failures
        );
        let _ = std::fs::remove_file(path);
        assert!(check_bench_file("/nonexistent/BENCH_train.json").is_err());
        let garbage = std::env::temp_dir().join("BENCH_sparse_garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(check_bench_file(garbage.to_str().unwrap()).is_err());
        let _ = std::fs::remove_file(garbage);
    }
}
