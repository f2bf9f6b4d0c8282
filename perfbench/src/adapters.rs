//! Timing and counting adapters over the attacks crate's public model
//! traits.
//!
//! An attack calls its model through [`GradientSource`] or
//! [`EventModel`]. Wrapping the model splits the attack's own time
//! (proposal, projection, bookkeeping) from the time spent in the model
//! it queries: model calls become `core` spans nested in the attack's
//! span, so the attack span's self time is the attack alone.

use crate::trace::Tracer;
use axsnn::attacks::gradient::GradientSource;
use axsnn::attacks::neuromorphic::EventModel;
use axsnn::attacks::Result;
use axsnn::core::network::SpikingNetwork;
use axsnn::neuromorphic::event::{DvsEvent, EventStream};
use axsnn::tensor::{ops, Tensor};
use rand::rngs::mock::StepRng;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times and counts every gradient a [`GradientSource`] serves.
pub struct TimedGradient<'t, G> {
    /// The wrapped source.
    pub inner: G,
    tracer: &'t Tracer,
    span: &'static str,
    /// Gradient calls served.
    pub calls: u64,
    /// Wall time of each call, ms.
    pub ms: Vec<f64>,
}

impl<'t, G: GradientSource> TimedGradient<'t, G> {
    /// Wraps `inner`; each call is recorded as a `core` span named `span`.
    pub fn new(inner: G, tracer: &'t Tracer, span: &'static str) -> Self {
        TimedGradient {
            inner,
            tracer,
            span,
            calls: 0,
            ms: Vec::new(),
        }
    }
}

impl<G: GradientSource> GradientSource for TimedGradient<'_, G> {
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor> {
        let t = Instant::now();
        let g = {
            let _s = self.tracer.open(self.span, "core", self.calls);
            self.inner.loss_gradient(image, label)
        };
        self.ms.push(ms_since(t));
        self.calls += 1;
        g
    }
}

/// The white-box surrogate gradient of
/// [`axsnn::attacks::gradient::SnnGradientSource`], computed through the
/// same public calls so the recorded forward and the BPTT backward can
/// be timed apart. The benchmark checks that it returns the identical
/// gradient before using it.
pub struct SplitSnnGradient<'a, 't> {
    net: &'a mut SpikingNetwork,
    tracer: &'t Tracer,
    /// `forward(…, record = true)` time per call, ms.
    pub forward_ms: Vec<f64>,
    /// `backward` time per call, ms.
    pub backward_ms: Vec<f64>,
}

impl<'a, 't> SplitSnnGradient<'a, 't> {
    /// Differentiates `net`.
    pub fn new(net: &'a mut SpikingNetwork, tracer: &'t Tracer) -> Self {
        SplitSnnGradient {
            net,
            tracer,
            forward_ms: Vec::new(),
            backward_ms: Vec::new(),
        }
    }
}

impl GradientSource for SplitSnnGradient<'_, '_> {
    fn loss_gradient(&mut self, image: &Tensor, label: usize) -> Result<Tensor> {
        let time_steps = self.net.config().time_steps;
        let frames = vec![image.clamp(0.0, 1.0); time_steps];
        let mut rng = StepRng::new(0, 1);
        let t = Instant::now();
        let out = {
            let _s = self.tracer.open("recorded_forward", "core", 0);
            self.net.forward(&frames, true, &mut rng)?
        };
        self.forward_ms.push(ms_since(t));
        let (_, grad_logits) = ops::cross_entropy_with_grad(&out.logits, label)?;
        let t = Instant::now();
        let frame_grads = {
            let _s = self.tracer.open("backward", "core", 0);
            self.net.backward(&grad_logits, time_steps)?
        };
        self.backward_ms.push(ms_since(t));
        let mut acc = Tensor::zeros(image.shape().dims());
        for g in &frame_grads {
            acc = acc.add(g)?;
        }
        Ok(acc)
    }
}

/// Times and counts the queries an event attack makes, and how many
/// events each queried stream differs from the clean one by.
pub struct TimedEventModel<'t, M> {
    /// The wrapped model.
    pub inner: M,
    tracer: &'t Tracer,
    clean: Vec<EventKey>,
    /// Queries served.
    pub queries: u64,
    /// Wall time of each query, ms.
    pub ms: Vec<f64>,
    /// Per query: size of the multiset difference between the queried
    /// stream and the clean stream (events injected, moved or flipped).
    pub flips: Vec<f64>,
}

type EventKey = (u32, u16, u16, usize);

fn keys(stream: &EventStream) -> Vec<EventKey> {
    let mut k: Vec<EventKey> = stream
        .events()
        .iter()
        .map(|e: &DvsEvent| (e.t.to_bits(), e.x, e.y, e.polarity.channel()))
        .collect();
    k.sort_unstable();
    k
}

/// Size of the symmetric difference of two sorted multisets.
pub fn multiset_difference(a: &[EventKey], b: &[EventKey]) -> usize {
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) + (b.len() - j)
}

impl<'t, M: EventModel> TimedEventModel<'t, M> {
    /// Wraps `inner` for attacks on `clean`.
    pub fn new(inner: M, tracer: &'t Tracer, clean: &EventStream) -> Self {
        TimedEventModel {
            inner,
            tracer,
            clean: keys(clean),
            queries: 0,
            ms: Vec::new(),
            flips: Vec::new(),
        }
    }
}

impl<M: EventModel> EventModel for TimedEventModel<'_, M> {
    fn logits(&mut self, stream: &EventStream) -> Result<Tensor> {
        let t = Instant::now();
        let logits = {
            let _s = self.tracer.open("sparse_query", "core", self.queries);
            self.inner.logits(stream)
        };
        self.ms.push(ms_since(t));
        self.queries += 1;
        if self.tracer.enabled() {
            let _s = self.tracer.open("flip_count", "bench", self.queries);
            self.flips
                .push(multiset_difference(&keys(stream), &self.clean) as f64);
        }
        logits
    }
}
