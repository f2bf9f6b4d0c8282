//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. Progress and notes
//! go to standard error; a provenance record goes to `.bench_records/`.

use axsnn_perfbench::report::Report;
use axsnn_perfbench::{conv, serve, stream, Ctx, Res};

const WORKLOADS: [&str; 3] = ["mnist-conv-robust", "mnist-mlp-serve", "dvs-conv-stream"];

fn parse() -> Res<(String, Ctx)> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Res<String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        Ok(args
            .get(i + 1)
            .ok_or_else(|| format!("{key} needs a value"))?
            .clone())
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}").into());
    }
    let seconds: f64 = get("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}").into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}").into()),
    };
    Ok((
        workload,
        Ctx {
            seed: get("--seed")?.parse()?,
            seconds,
            trace,
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let run = match workload.as_str() {
        "mnist-conv-robust" => conv::run(&ctx, &mut report),
        "mnist-mlp-serve" => serve::run(&ctx, &mut report),
        _ => stream::run(&ctx, &mut report),
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    if let Err(e) = run {
        eprintln!("perfbench: {workload} failed: {e}");
        std::process::exit(1);
    }
    let record = format!(
        ".bench_records/{workload}-seed{}-trace{}.json",
        ctx.seed,
        u8::from(ctx.trace)
    );
    if let Err(e) = std::fs::create_dir_all(".bench_records")
        .and_then(|()| report.write_record(&record, &workload, ctx.seed, ctx.trace))
    {
        eprintln!("perfbench: cannot write {record}: {e}");
        std::process::exit(1);
    }
    for (name, value, unit) in report.extras.iter().chain(&report.metrics) {
        eprintln!("{name:<40} {value:>16.6} {unit}");
    }
    if !axsnn_perfbench::matches_manifest(&ctx, &report) {
        let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        eprintln!("perfbench: {workload} reported {names:?}, not the manifest's metrics");
        std::process::exit(1);
    }
    println!("{}", report.result_line());
}
