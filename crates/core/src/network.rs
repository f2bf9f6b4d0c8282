//! The time-stepped spiking network simulator.
//!
//! [`SpikingNetwork`] runs a [`crate::layer::Layer`] stack over `T`
//! time steps, sums the integrator readout into logits, and supports full
//! BPTT ([`SpikingNetwork::backward`]) including gradients with respect to
//! the *input frames* — which is what the white-box adversarial attacks
//! need.
//!
//! It also collects [`SpikeStats`] (per-layer spike counts and synaptic
//! operations) used both for the Eq. (1) approximation statistics and for
//! the paper's energy-efficiency argument (AxSNNs save energy by skipping
//! neurons, i.e. reducing synaptic operations).

use crate::encoding::Encoder;
use crate::layer::Layer;
use crate::lif::LifParams;
use crate::plan::{ExecPlan, PlanOverride, WeightPlane};
use crate::{CoreError, Result};
use axsnn_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

pub use crate::plan::{LayerEligibility, SparseEligibility};

/// Global structural parameters of an SNN (the paper's robustness knobs).
///
/// # Example
///
/// ```
/// use axsnn_core::network::SnnConfig;
///
/// let cfg = SnnConfig { threshold: 0.25, time_steps: 32, leak: 0.9 };
/// assert_eq!(cfg.lif_params().threshold, 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnnConfig {
    /// Threshold voltage `V_th` shared by all spiking layers.
    pub threshold: f32,
    /// Number of simulation time steps `T`.
    pub time_steps: usize,
    /// Membrane leak factor per step.
    pub leak: f32,
}

impl Default for SnnConfig {
    fn default() -> Self {
        SnnConfig {
            threshold: 1.0,
            time_steps: 16,
            leak: 0.9,
        }
    }
}

impl SnnConfig {
    /// LIF parameters derived from this configuration.
    pub fn lif_params(&self) -> LifParams {
        LifParams {
            threshold: self.threshold,
            leak: self.leak,
            surrogate_alpha: 2.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for zero time steps, non-positive
    /// threshold, or a leak outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.time_steps == 0 {
            return Err(CoreError::Config {
                message: "time_steps must be > 0".into(),
            });
        }
        if self.threshold <= 0.0 {
            return Err(CoreError::Config {
                message: format!("threshold must be positive, got {}", self.threshold),
            });
        }
        if !(0.0..=1.0).contains(&self.leak) {
            return Err(CoreError::Config {
                message: format!("leak must be in [0,1], got {}", self.leak),
            });
        }
        Ok(())
    }
}

/// Spiking activity statistics collected during a forward pass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpikeStats {
    /// Total spikes emitted per spiking layer over all time steps.
    pub spikes_per_layer: Vec<f32>,
    /// Total synaptic operations (spike × fan-out) — the energy proxy.
    pub synaptic_ops: f64,
    /// Time steps simulated.
    pub time_steps: usize,
}

impl SpikeStats {
    /// Total spikes across all layers.
    pub fn total_spikes(&self) -> f32 {
        self.spikes_per_layer.iter().sum()
    }

    /// Mean spikes per time step per layer (`Ns/T` in Eq. (1) terms).
    pub fn mean_rate_per_layer(&self) -> Vec<f32> {
        if self.time_steps == 0 {
            return vec![0.0; self.spikes_per_layer.len()];
        }
        self.spikes_per_layer
            .iter()
            .map(|&s| s / self.time_steps as f32)
            .collect()
    }
}

/// Output of a forward simulation.
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Accumulated readout logits (sum over time steps).
    pub logits: Tensor,
    /// Spiking statistics of the run.
    pub stats: SpikeStats,
}

/// A feed-forward spiking neural network simulated over discrete time.
///
/// # Example
///
/// ```
/// use axsnn_core::network::{SnnConfig, SpikingNetwork};
/// use axsnn_core::layer::Layer;
/// use axsnn_tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), axsnn_core::CoreError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = SnnConfig { threshold: 0.5, time_steps: 8, leak: 0.9 };
/// let mut net = SpikingNetwork::new(
///     vec![
///         Layer::spiking_linear(&mut rng, 4, 8, &cfg),
///         Layer::output_linear(&mut rng, 8, 3),
///     ],
///     cfg,
/// )?;
/// let frames = vec![Tensor::full(&[4], 1.0); 8];
/// let out = net.forward(&frames, false, &mut rng)?;
/// assert_eq!(out.logits.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpikingNetwork {
    layers: Vec<Layer>,
    config: SnnConfig,
    plan: ExecPlan,
}

impl SpikingNetwork {
    /// Builds a network from a layer stack and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] for an invalid configuration or an
    /// empty / readout-less layer stack.
    pub fn new(layers: Vec<Layer>, config: SnnConfig) -> Result<Self> {
        config.validate()?;
        if layers.is_empty() {
            return Err(CoreError::Config {
                message: "network needs at least one layer".into(),
            });
        }
        if !matches!(layers.last(), Some(Layer::OutputLinear(_))) {
            return Err(CoreError::Config {
                message: "last layer must be an output_linear readout".into(),
            });
        }
        let plan = ExecPlan::capture(&layers);
        Ok(SpikingNetwork {
            layers,
            config,
            plan,
        })
    }

    /// The network's execution plan: the per-layer kernel choices and
    /// sparse-path eligibility the dispatch layer derived (see
    /// [`crate::plan`]). Re-captured automatically on the mutation
    /// points that can change it ([`SpikingNetwork::apply_plan`],
    /// [`SpikingNetwork::set_sparse_threshold`],
    /// [`SpikingNetwork::set_train_mode`]).
    pub fn exec_plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Applies a plan override to every layer ([`PlanOverride::Auto`]
    /// restores the shape-derived defaults) and re-captures the plan.
    pub fn apply_plan(&mut self, plan: PlanOverride) {
        self.plan = ExecPlan::apply(&mut self.layers, plan);
    }

    /// Re-captures the execution plan after direct layer mutations
    /// through [`SpikingNetwork::layers_mut`] or
    /// [`Layer::set_sparse_threshold`] (the structured entry points
    /// re-capture automatically).
    pub fn refresh_plan(&mut self) {
        self.plan = ExecPlan::capture(&self.layers);
    }

    /// The network configuration.
    pub fn config(&self) -> &SnnConfig {
        &self.config
    }

    /// Shared access to the layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (for approximation / precision
    /// scaling passes).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Switches every dropout layer between train and inference mode
    /// (and re-captures the execution plan — active train-mode dropout
    /// de-binarizes the frames behind it).
    pub fn set_train_mode(&mut self, train: bool) {
        for l in &mut self.layers {
            l.set_train_mode(train);
        }
        self.plan = ExecPlan::capture(&self.layers);
    }

    /// Re-applies `threshold`/`leak` from a new configuration to every
    /// spiking layer. Keeps weights untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the new configuration is invalid.
    pub fn reconfigure(&mut self, config: SnnConfig) -> Result<()> {
        config.validate()?;
        self.config = config;
        let params = config.lif_params();
        for l in &mut self.layers {
            l.set_lif_params(params);
        }
        Ok(())
    }

    /// Resets all membrane state and tapes (start of a new sample).
    pub fn reset(&mut self) {
        for l in &mut self.layers {
            l.reset();
        }
    }

    /// Sets every layer's spike-density threshold for the event-driven
    /// sparse forward path (`0.0` forces the dense kernels everywhere —
    /// useful for A/B comparisons and equivalence tests). Equivalent to
    /// [`SpikingNetwork::apply_plan`] with
    /// [`PlanOverride::ForceThreshold`].
    pub fn set_sparse_threshold(&mut self, threshold: f32) {
        self.apply_plan(PlanOverride::ForceThreshold(threshold));
    }

    /// Installs a reduced-precision weight storage plane on every
    /// parameterized layer (see [`Layer::set_weight_plane`]) and
    /// re-captures the execution plan. [`WeightPlane::F32`] uninstalls
    /// all planes. The knob is atomic: int8 finiteness is validated up
    /// front across the whole stack, so a failing layer leaves the
    /// network unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when [`WeightPlane::Int8`] is
    /// requested while any layer holds non-finite weights or biases.
    pub fn set_weight_plane(&mut self, plane: WeightPlane) -> Result<()> {
        if plane == WeightPlane::Int8 {
            for (i, l) in self.layers.iter().enumerate() {
                if let Some((w, b)) = l.params() {
                    if !w.value.is_finite() || !b.value.is_finite() {
                        return Err(CoreError::Config {
                            message: format!(
                                "int8 weight plane requires finite parameters; \
                                 layer {i} ({}) has non-finite values",
                                l.kind()
                            ),
                        });
                    }
                }
            }
        }
        for l in &mut self.layers {
            l.set_weight_plane(plane)?;
        }
        self.refresh_plan();
        Ok(())
    }

    /// The weight storage plane of the first parameterized layer
    /// ([`WeightPlane::F32`] when none is installed; layers can in
    /// principle differ when set individually through
    /// [`SpikingNetwork::layers_mut`] — the execution plan reports the
    /// per-layer truth).
    pub fn weight_plane(&self) -> WeightPlane {
        self.layers
            .iter()
            .find_map(|l| l.weight_plane())
            .unwrap_or(WeightPlane::F32)
    }

    /// Runs the network over a sequence of input frames (one per time
    /// step), returning accumulated logits and spike statistics.
    ///
    /// Set `record` to enable a subsequent [`SpikingNetwork::backward`].
    ///
    /// Internally this drives a [`FrameStepper`] over the frames, so the
    /// offline full-sample path and incremental (streaming) consumers of
    /// the stepper execute the exact same per-step operations — streamed
    /// logits are bit-identical by construction, pinned by the
    /// `stream_equivalence` suite.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `frames` is empty, plus any
    /// shape errors from the layers.
    pub fn forward<R: Rng>(
        &mut self,
        frames: &[Tensor],
        record: bool,
        rng: &mut R,
    ) -> Result<ForwardOutput> {
        if frames.is_empty() {
            return Err(CoreError::Config {
                message: "forward needs at least one input frame".into(),
            });
        }
        let mut stepper = self.frame_stepper(record);
        for frame in frames {
            stepper.step(frame, rng)?;
        }
        stepper.finish()
    }

    /// Begins an incremental frame-at-a-time forward pass (the streaming
    /// seam): resets all membrane state and returns a [`FrameStepper`]
    /// that applies one membrane update per submitted frame.
    ///
    /// [`SpikingNetwork::forward`] is implemented on top of this, so a
    /// stepper fed the same frames in the same order produces
    /// bit-identical logits and statistics — including every
    /// [`crate::plan::ExecPlan`] dispatch decision (density gates,
    /// weight planes, dense fallbacks), which are made per frame.
    pub fn frame_stepper(&mut self, record: bool) -> FrameStepper<'_> {
        self.reset();
        let spiking_layers = self.layers.iter().filter(|l| l.is_spiking()).count();
        // Energy proxy: only *non-zero* weights cost a synaptic operation —
        // this is exactly the saving approximation buys (skipped
        // connections perform no work). Counted over the *effective*
        // weights so int8 quantization's snapped-to-zero connections
        // register as savings. Computed once per pass.
        let nonzero_weights: Vec<usize> = self
            .layers
            .iter()
            .map(|l| {
                l.eff_params()
                    .map(|(w, _)| w.as_slice().iter().filter(|v| **v != 0.0).count())
                    .unwrap_or(0)
            })
            .collect();
        FrameStepper {
            stats: SpikeStats {
                spikes_per_layer: vec![0.0; spiking_layers],
                synaptic_ops: 0.0,
                time_steps: 0,
            },
            net: self,
            record,
            nonzero_weights,
            logits: None,
        }
    }

    /// BPTT backward pass after a recorded forward.
    ///
    /// `grad_logits` is `∂L/∂logits`; because the logits are a sum over
    /// time steps, the same gradient is injected at every step. Returns
    /// the gradient with respect to each input frame (time-major), which
    /// the attacks crate aggregates into an image gradient.
    ///
    /// Parameter gradients *accumulate* across calls so minibatches can
    /// sum per-sample gradients; call [`SpikingNetwork::zero_grads`]
    /// between batches. The membrane-carry state is freshly cleared by
    /// the preceding [`SpikingNetwork::forward`]. Training code that
    /// does not need the frame gradients should prefer the minibatched
    /// [`SpikingNetwork::forward_batch_recorded`] /
    /// [`SpikingNetwork::backward_batch`] pair, which runs the whole
    /// batch through one reverse-time sweep.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoRecordedForward`] when `forward` was not
    /// called with `record = true`.
    pub fn backward(&mut self, grad_logits: &Tensor, time_steps: usize) -> Result<Vec<Tensor>> {
        let mut frame_grads: Vec<Tensor> = Vec::with_capacity(time_steps);
        for t in (0..time_steps).rev() {
            let mut g = grad_logits.clone();
            for layer in self.layers.iter_mut().rev() {
                g = layer.backward_step(&g, t)?;
            }
            frame_grads.push(g);
        }
        frame_grads.reverse();
        Ok(frame_grads)
    }

    /// Applies accumulated gradients with SGD + momentum.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot occur for well-formed layers).
    pub fn apply_grads(&mut self, lr: f32, momentum: f32) -> Result<()> {
        for l in &mut self.layers {
            l.apply_grads(lr, momentum)?;
        }
        Ok(())
    }

    /// Zeroes all accumulated parameter gradients (start of a minibatch).
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Per-layer dense-fallback counters (see
    /// [`Layer::dense_fallback_count`]); `0` for layers without a
    /// sparse path. A view over the execution plan's shared per-layer
    /// counters, so worker clones' fallbacks are included.
    pub fn dense_fallback_counts(&self) -> Vec<u64> {
        self.plan.dense_fallback_counts()
    }

    /// Total dense-fallback conversions across all layers — the
    /// observable form of the "avg pooling silently forces the dense
    /// path" degradation.
    pub fn total_dense_fallbacks(&self) -> u64 {
        self.dense_fallback_counts().iter().sum()
    }

    /// Static sparse-path eligibility audit — a view over the
    /// execution plan (see [`ExecPlan::eligibility`] for the audit
    /// semantics): which layers can ever take the event-driven sparse
    /// path, and where average pooling or train-mode dropout silently
    /// forces the dense kernels downstream.
    pub fn sparse_eligible(&self) -> SparseEligibility {
        self.plan.eligibility()
    }

    /// Encodes an image and returns the predicted class label.
    ///
    /// # Errors
    ///
    /// Propagates encoding and forward errors.
    pub fn classify<R: Rng>(
        &mut self,
        image: &Tensor,
        encoder: Encoder,
        rng: &mut R,
    ) -> Result<usize> {
        let frames = encoder.encode(image, self.config.time_steps, rng)?;
        let out = self.forward(&frames, false, rng)?;
        Ok(out.logits.argmax().unwrap_or(0))
    }

    /// Convenience: classify an already encoded frame sequence.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn classify_frames<R: Rng>(&mut self, frames: &[Tensor], rng: &mut R) -> Result<usize> {
        let out = self.forward(frames, false, rng)?;
        Ok(out.logits.argmax().unwrap_or(0))
    }

    /// Total number of learnable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .filter_map(|l| l.params())
            .map(|(w, b)| w.value.len() + b.value.len())
            .sum()
    }
}

/// Incremental frame-at-a-time forward pass over a [`SpikingNetwork`]
/// (obtained from [`SpikingNetwork::frame_stepper`]).
///
/// Each [`FrameStepper::step`] applies exactly one membrane update —
/// the per-frame body that [`SpikingNetwork::forward`] loops over — so
/// streaming consumers (the `axsnn-neuromorphic` `StreamSession`) and
/// the offline path share one code path and produce bit-identical
/// logits and [`SpikeStats`] for the same frame sequence.
///
/// The stepper borrows the network mutably for its whole lifetime;
/// call [`FrameStepper::finish`] to release it and obtain the
/// accumulated [`ForwardOutput`].
#[derive(Debug)]
pub struct FrameStepper<'a> {
    net: &'a mut SpikingNetwork,
    record: bool,
    nonzero_weights: Vec<usize>,
    stats: SpikeStats,
    logits: Option<Tensor>,
}

/// Mean number of synaptic operations one input spike of `layer`
/// triggers: each nonzero weight is applied once per output position of
/// its tap — `OH·OW` positions for a convolution, one for a linear layer
/// — and the total is spread over the `input_len` inputs.
fn mean_fan_out(layer: &Layer, nonzero_weights: usize, input_len: usize, output_len: usize) -> f64 {
    let positions = match layer {
        Layer::SpikingConv2d(l) => output_len / l.spec.out_channels.max(1),
        _ => 1,
    };
    nonzero_weights as f64 * positions as f64 / input_len.max(1) as f64
}

impl FrameStepper<'_> {
    /// Applies one membrane update for `frame`, accumulating readout
    /// logits and spike statistics. Every [`crate::plan::ExecPlan`]
    /// dispatch decision (density gate, weight plane, dense fallback)
    /// is made here, per frame, exactly as in the offline path.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn step<R: Rng>(&mut self, frame: &Tensor, rng: &mut R) -> Result<()> {
        let mut x = frame.clone();
        let mut spiking_idx = 0usize;
        for (li, layer) in self.net.layers.iter_mut().enumerate() {
            let in_len = x.len();
            let in_spikes = x.sum();
            x = layer.forward_step(&x, self.record, rng)?;
            if layer.is_spiking() {
                let emitted = layer.last_step_spike_count().unwrap_or(0.0);
                self.stats.spikes_per_layer[spiking_idx] += emitted;
                spiking_idx += 1;
                let fan_out = mean_fan_out(layer, self.nonzero_weights[li], in_len, x.len());
                self.stats.synaptic_ops += in_spikes as f64 * fan_out;
            }
        }
        self.stats.time_steps += 1;
        self.logits = Some(match self.logits.take() {
            None => x,
            Some(acc) => acc.add(&x)?,
        });
        Ok(())
    }

    /// Number of frames stepped so far.
    pub fn steps(&self) -> usize {
        self.stats.time_steps
    }

    /// The logits accumulated so far (readout sum over the frames
    /// stepped to date), or `None` before the first step. Lets
    /// streaming consumers read out an *anytime* prediction without
    /// ending the pass.
    pub fn logits_so_far(&self) -> Option<&Tensor> {
        self.logits.as_ref()
    }

    /// Spike statistics accumulated so far.
    pub fn stats_so_far(&self) -> &SpikeStats {
        &self.stats
    }

    /// Ends the pass, returning accumulated logits and statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when no frame was ever stepped.
    pub fn finish(self) -> Result<ForwardOutput> {
        match self.logits {
            Some(logits) => Ok(ForwardOutput {
                logits,
                stats: self.stats,
            }),
            None => Err(CoreError::Config {
                message: "forward needs at least one input frame".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(rng: &mut StdRng, cfg: SnnConfig) -> SpikingNetwork {
        SpikingNetwork::new(
            vec![
                Layer::spiking_linear(rng, 6, 10, &cfg),
                Layer::spiking_linear(rng, 10, 10, &cfg),
                Layer::output_linear(rng, 10, 3),
            ],
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(SnnConfig {
            threshold: 0.0,
            time_steps: 4,
            leak: 0.9
        }
        .validate()
        .is_err());
        assert!(SnnConfig {
            threshold: 1.0,
            time_steps: 0,
            leak: 0.9
        }
        .validate()
        .is_err());
        assert!(SnnConfig {
            threshold: 1.0,
            time_steps: 4,
            leak: 1.5
        }
        .validate()
        .is_err());
        assert!(SnnConfig::default().validate().is_ok());
    }

    #[test]
    fn network_requires_readout_last() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SnnConfig::default();
        let layers = vec![Layer::spiking_linear(&mut rng, 4, 4, &cfg)];
        assert!(SpikingNetwork::new(layers, cfg).is_err());
        assert!(SpikingNetwork::new(vec![], cfg).is_err());
    }

    #[test]
    fn forward_is_deterministic_after_reset() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 6,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 6];
        let a = net.forward(&frames, false, &mut rng).unwrap();
        let b = net.forward(&frames, false, &mut rng).unwrap();
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn stats_count_spikes() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SnnConfig {
            threshold: 0.1,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 4];
        let out = net.forward(&frames, false, &mut rng).unwrap();
        assert_eq!(out.stats.spikes_per_layer.len(), 2);
        assert!(out.stats.total_spikes() > 0.0, "low threshold must spike");
        assert!(out.stats.synaptic_ops > 0.0);
    }

    #[test]
    fn higher_threshold_reduces_spiking() {
        let spikes_at = |vth: f32| {
            let mut rng = StdRng::seed_from_u64(1);
            let cfg = SnnConfig {
                threshold: vth,
                time_steps: 8,
                leak: 0.9,
            };
            let mut net = small_net(&mut rng, cfg);
            let frames = vec![Tensor::full(&[6], 1.0); 8];
            net.forward(&frames, false, &mut rng)
                .unwrap()
                .stats
                .total_spikes()
        };
        assert!(spikes_at(0.2) >= spikes_at(1.0));
        assert!(spikes_at(1.0) >= spikes_at(5.0));
    }

    #[test]
    fn backward_produces_frame_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SnnConfig {
            threshold: 0.5,
            time_steps: 4,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 4];
        net.forward(&frames, true, &mut rng).unwrap();
        let g = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[3]).unwrap();
        let fg = net.backward(&g, 4).unwrap();
        assert_eq!(fg.len(), 4);
        assert_eq!(fg[0].shape().dims(), &[6]);
        assert!(fg.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn backward_without_record_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SnnConfig::default();
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 16];
        net.forward(&frames, false, &mut rng).unwrap();
        let g = Tensor::zeros(&[3]);
        assert!(net.backward(&g, 16).is_err());
    }

    #[test]
    fn reconfigure_changes_behavior() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SnnConfig {
            threshold: 0.2,
            time_steps: 8,
            leak: 0.9,
        };
        let mut net = small_net(&mut rng, cfg);
        let frames = vec![Tensor::full(&[6], 1.0); 8];
        let low = net
            .forward(&frames, false, &mut rng)
            .unwrap()
            .stats
            .total_spikes();
        net.reconfigure(SnnConfig {
            threshold: 5.0,
            time_steps: 8,
            leak: 0.9,
        })
        .unwrap();
        let high = net
            .forward(&frames, false, &mut rng)
            .unwrap()
            .stats
            .total_spikes();
        assert!(high < low);
    }

    #[test]
    fn weight_plane_is_atomic_and_observable() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = small_net(&mut rng, SnnConfig::default());
        assert_eq!(net.weight_plane(), WeightPlane::F32);
        net.set_weight_plane(WeightPlane::Int8).unwrap();
        assert_eq!(net.weight_plane(), WeightPlane::Int8);
        assert_eq!(
            net.exec_plan().layers()[0].plane,
            Some(WeightPlane::Int8),
            "plan re-capture must see the installed plane"
        );
        net.set_weight_plane(WeightPlane::F32).unwrap();

        // Poison one weight: the int8 install must fail up front and
        // leave every layer plane-free.
        if let Some((w, _)) = net.layers_mut()[1].params_mut() {
            w.value.as_mut_slice()[0] = f32::NAN;
        }
        assert!(net.set_weight_plane(WeightPlane::Int8).is_err());
        assert!(net
            .layers()
            .iter()
            .all(|l| l.weight_plane().is_none_or(|p| p == WeightPlane::F32)));
    }

    #[test]
    fn parameter_count_positive() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = small_net(&mut rng, SnnConfig::default());
        // 6*10+10 + 10*10+10 + 10*3+3 = 70 + 110 + 33
        assert_eq!(net.parameter_count(), 213);
    }
}
