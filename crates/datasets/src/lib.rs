//! Synthetic dataset generators for the AxSNN reproduction.
//!
//! The paper evaluates on MNIST and DVS128 Gesture. Neither is available
//! in this offline environment, so this crate generates seeded synthetic
//! equivalents that exercise the same code paths:
//!
//! * [`mnist`] — procedurally rendered digit glyphs (stroke templates with
//!   random affine jitter, thickness and noise) in `[1, S, S]` tensors
//!   with intensities in `[0, 1]`,
//! * [`dvs`] — an event-camera gesture dataset: parametric emitter motions
//!   (waves, circles, rolls, …) producing spatio-temporally correlated
//!   ON/OFF event streams plus background shot noise.
//!
//! Both generators are deterministic given a seed, which the benchmark
//! harness relies on.
//!
//! # Provenance
//!
//! The generators are seed modules; [`cache`] (encode-once
//! [`cache::EncodedCache`] shared across sweep grid cells) landed in
//! PR 2 and [`dvs::EventReplay`] — the time-ordered iterator that
//! feeds collected streams to the PR 9 streaming inference path — in
//! PR 9. Generator determinism is pinned by the in-crate tests;
//! the streaming consumer is pinned by the neuromorphic crate's
//! `stream_equivalence` suite.
//!
//! # Example
//!
//! ```
//! use axsnn_datasets::mnist::{MnistConfig, SyntheticMnist};
//!
//! let dataset = SyntheticMnist::new(MnistConfig {
//!     train_per_class: 2,
//!     test_per_class: 1,
//!     ..MnistConfig::default()
//! })
//! .generate();
//! assert_eq!(dataset.train.len(), 20);
//! assert_eq!(dataset.test.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dvs;
pub mod mnist;

/// A labelled dataset split into train and test parts.
///
/// # Example
///
/// ```
/// let d: axsnn_datasets::Dataset<f32> = axsnn_datasets::Dataset {
///     train: vec![(1.0, 0)],
///     test: vec![(2.0, 1)],
///     classes: 2,
/// };
/// assert_eq!(d.classes, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset<T> {
    /// Training samples with labels.
    pub train: Vec<(T, usize)>,
    /// Held-out test samples with labels.
    pub test: Vec<(T, usize)>,
    /// Number of classes.
    pub classes: usize,
}

impl<T> Dataset<T> {
    /// Labels of the test split (convenience for accuracy computation).
    pub fn test_labels(&self) -> Vec<usize> {
        self.test.iter().map(|(_, l)| *l).collect()
    }

    /// Total sample count.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Returns `true` when both splits are empty.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }
}
