//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a crate's
//! public API. Spans are kept in memory and written out once, when the
//! run ends. A span's *self time* is its duration minus the part of its
//! interval that its children cover, so per-crate self times partition
//! the traced wall time without double counting nested calls.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `forward_batch`.
    pub name: &'static str,
    /// The crate that owns the call (`bench` for the benchmark's own
    /// phases).
    pub krate: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Sample or request id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder. Disabled tracers record nothing and cost one
/// branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[i].end_ns = now;
            }
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if open.last() == Some(&i) {
                    open.pop();
                }
            });
        }
    }
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span of this thread.
    pub fn open(&self, name: &'static str, krate: &'static str, id: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span buffer lock");
            spans.push(Span {
                name,
                krate,
                start_ns,
                end_ns: u64::MAX,
                parent,
                id,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        krate: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _g = self.open(name, krate, id);
        f()
    }

    /// Records an already-finished span, nested in the innermost open
    /// span of this thread if there is one (a request timed on a thread
    /// that opens no spans becomes a root).
    pub fn record(
        &self,
        name: &'static str,
        krate: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let span = Span {
            name,
            krate,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent,
            id,
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own. Children that overlap each
/// other (concurrent calls) are not counted twice.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = union_ns(
                children[i]
                    .iter()
                    .map(|&c| {
                        let c = &spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .collect(),
            );
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-crate self time (ns) over the subtree rooted at `root`, sorted by
/// crate name.
pub fn crate_self_ns(spans: &[Span], root: usize) -> Vec<(&'static str, u64)> {
    let selfs = self_times_ns(spans);
    let mut in_tree = vec![false; spans.len()];
    in_tree[root] = true;
    // Parents are always recorded before their children.
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            in_tree[i] = in_tree[p];
        }
    }
    let mut per: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        if in_tree[i] {
            *per.entry(s.krate).or_default() += selfs[i];
        }
    }
    per.into_iter().collect()
}

/// Serializes spans as a JSON array (one object per line).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"name\":\"{}\",\"crate\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
            s.name, s.krate, s.start_ns, s.end_ns, parent, s.id
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}
