//! Self-tests of the benchmark's own arithmetic: tail percentiles, the
//! seeded arrival schedule and span self time; and that the metrics the
//! workloads report are the ones `BENCHMARK.json` lists.

use axsnn_perfbench::adapters::multiset_difference;
use axsnn_perfbench::stats::{due_times, median, percentile, tail_percentile};
use axsnn_perfbench::trace::{crate_self_ns, self_times_ns, union_ns, Span};
use axsnn_perfbench::{END_TO_END, PER_LAYER};

fn ramp(n: usize) -> Vec<f64> {
    // 1..=n, shuffled so the helpers must sort.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.swap(0, n / 2);
    v
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert_eq!(tail_percentile(&ramp(10)), None);
    let (p, v) = tail_percentile(&ramp(100)).unwrap();
    assert_eq!((p, v), (90.0, 90.0));
    let (p, v) = tail_percentile(&ramp(1000)).unwrap();
    assert_eq!((p, v), (99.0, 990.0));
    let (p, v) = tail_percentile(&ramp(11)).unwrap();
    assert!((p - 100.0 / 11.0).abs() < 1e-12);
    assert_eq!(v, 1.0);
}

#[test]
fn percentile_refuses_a_thin_tail() {
    assert_eq!(percentile(&ramp(99), 90.0), None);
    assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
    assert_eq!(percentile(&ramp(999), 99.0), None);
    assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    assert_eq!(percentile(&ramp(3), 50.0), Some(2.0));
    assert_eq!(median(&ramp(4)), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn schedule_is_seeded_absolute_and_poisson() {
    let a = due_times(7, 2000.0, 5.0);
    assert_eq!(a, due_times(7, 2000.0, 5.0));
    assert_ne!(a, due_times(8, 2000.0, 5.0));
    assert!(a.windows(2).all(|w| w[0] < w[1]));
    assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
    // 10,000 expected arrivals; a Poisson count is within 5 sigma.
    let n = a.len() as f64;
    assert!((n - 10_000.0).abs() < 5.0 * 100.0, "{n} arrivals");
    // Exponential gaps: mean 1/rate, and as many gaps above the mean
    // as e^-1 predicts.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!((mean * 2000.0 - 1.0).abs() < 0.05, "mean gap {mean}");
    let above = gaps.iter().filter(|&&g| g > 1.0 / 2000.0).count() as f64 / gaps.len() as f64;
    assert!((above - (-1.0f64).exp()).abs() < 0.02, "{above}");
    // A schedule shorter than a step is a prefix of the longer one.
    let short = due_times(7, 2000.0, 1.0);
    assert_eq!(&a[..short.len()], short.as_slice());
}

fn span(
    name: &'static str,
    krate: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
) -> Span {
    Span {
        name,
        krate,
        start_ns,
        end_ns,
        parent,
        id: 0,
    }
}

#[test]
fn union_merges_overlaps_and_drops_empty() {
    assert_eq!(union_ns(vec![]), 0);
    assert_eq!(union_ns(vec![(10, 40), (30, 60), (70, 70), (80, 90)]), 60);
    assert_eq!(union_ns(vec![(0, 100), (10, 20)]), 100);
}

#[test]
fn self_time_subtracts_overlapping_children_once() {
    let spans = vec![
        span("root", "bench", 0, 100, None),
        // Two children that overlap each other, and one that runs past
        // the parent's end.
        span("a", "core", 10, 40, Some(0)),
        span("b", "datasets", 30, 60, Some(0)),
        span("c", "attacks", 90, 120, Some(0)),
        // A grandchild inside `a`.
        span("d", "core", 15, 25, Some(1)),
        // A span on another thread, outside the tree.
        span("request", "serve", 0, 50, None),
    ];
    let selfs = self_times_ns(&spans);
    // root: 100 − |[10,60] ∪ [90,100]| = 100 − 60.
    assert_eq!(selfs[0], 40);
    assert_eq!(selfs[1], 20);
    assert_eq!(selfs[2], 30);
    assert_eq!(selfs[3], 30);
    assert_eq!(selfs[4], 10);
    let per = crate_self_ns(&spans, 0);
    assert_eq!(
        per,
        vec![
            ("attacks", 30),
            ("bench", 40),
            ("core", 30),
            ("datasets", 30)
        ]
    );
}

#[test]
fn multiset_difference_counts_both_sides() {
    let a = [(1, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0), (3, 1, 1, 1)];
    let b = [(2, 0, 0, 0), (3, 1, 1, 1), (4, 0, 0, 0)];
    assert_eq!(multiset_difference(&a, &b), 3);
    assert_eq!(multiset_difference(&a, &a), 0);
}

/// `(name, unit)` of every metric object in `json`, in order.
fn name_units(json: &str) -> Vec<(String, String)> {
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("metric key") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("opening quote") + 1;
        let close = rest[open..].find('"').expect("closing quote");
        rest[open..open + close].to_string()
    };
    json.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn reported_metrics_are_the_manifest_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let e2e = manifest.find("\"end_to_end\"").expect("end_to_end");
    let per_layer = manifest.find("\"per_layer\"").expect("per_layer");
    assert!(e2e < per_layer, "end_to_end is listed before per_layer");
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(name_units(&manifest[e2e..per_layer]), owned(&END_TO_END));
    assert_eq!(name_units(&manifest[per_layer..]), owned(&PER_LAYER));
}
