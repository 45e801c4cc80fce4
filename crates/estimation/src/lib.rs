//! Estimation substrate for the DAP reproduction.
//!
//! This crate hosts everything the Expectation-Maximization Filter and the
//! protocol layer need that is *not* mechanism- or protocol-specific:
//!
//! * [`grid`] — uniform bucketization of value domains and histogram counts,
//! * [`transform`] — exact transform matrices `M` mapping input buckets to
//!   output buckets through an LDP mechanism (Fig. 2 of the paper),
//! * [`em`] — the generic EM solver that EMF / EMF\* / CEMF\* instantiate
//!   with different M-step normalizations,
//! * [`ems`] — EM with smoothing (Li et al., SIGMOD 2020) for Square-Wave
//!   distribution estimation,
//! * [`stats`] — means, variances, MSE, Wasserstein-1 distance,
//! * [`rng`] — deterministic RNG plumbing for reproducible experiments.

pub mod cache;
pub mod em;
pub mod ems;
pub mod grid;
pub mod rng;
pub mod sampling;
pub mod stats;
pub mod transform;

pub use cache::{cached_for_numeric, MatrixCache};
pub use em::{EmOptions, EmOutcome, EmWorkspace, MStep};
pub use grid::Grid;
pub use transform::{PoisonRegion, StructuredColumns, TransformMatrix};
