//! Genetic-algorithm feature selection for `phaselab`.
//!
//! Step 5 of the ISPASS 2008 methodology selects a small set of key
//! microarchitecture-independent characteristics for the kiviat plots. A
//! genetic algorithm searches over 69-bit masks; a mask's fitness is the
//! Pearson correlation between the pairwise distances of the prominent
//! phases in the *reduced* characteristic space and their distances in
//! the *full* space (both computed in the rescaled PCA space, to discount
//! inter-characteristic correlation).
//!
//! This crate provides:
//!
//! * [`select_features`] — the multi-population GA with mutation,
//!   crossover and migration described in the paper (§2.7),
//! * [`DistanceCorrelationFitness`] — the paper's fitness function,
//! * [`greedy_select`] — a forward-selection baseline for comparison.
//!
//! # Examples
//!
//! ```
//! use phaselab_ga::{select_features, GaConfig};
//!
//! // Toy fitness: prefer masks selecting the low-numbered genes.
//! let fitness = |mask: &[bool]| {
//!     mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| -(i as f64)).sum()
//! };
//! let result = select_features(10, 3, &fitness, &GaConfig::fast(1));
//! assert_eq!(result.genome.iter().filter(|&&g| g).count(), 3);
//! assert!(result.genome[0] && result.genome[1] && result.genome[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod equivalence;
mod evolve;
mod fitness;
mod greedy;

pub use evolve::{select_features, GaConfig, GaConfigError, GaResult};
pub use fitness::DistanceCorrelationFitness;
pub use greedy::greedy_select;
