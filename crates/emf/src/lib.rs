//! Expectation-Maximization Filter (EMF) and its post-processing schemes.
//!
//! EMF is the paper's probing engine: from one batch of LDP reports it
//! reconstructs, jointly, the frequency histogram `x̂` of honest users over
//! the *input* domain and the histogram `ŷ` of poison values over the
//! poisoned half of the *output* domain. Three Byzantine features fall out:
//!
//! 1. the coalition proportion `γ̂ = Σ ŷ_j` (Eq. 9),
//! 2. the poisoned side, by comparing `Var(x̂)` under left/right hypotheses
//!    (Algorithm 3 — Theorem 3 shows `x̂` of the correct side converges to a
//!    near-uniform histogram as ε → 0),
//! 3. the poison-value histogram and its mean `M_α` (Eq. 11).
//!
//! Post-processing:
//! * **EMF\*** (Algorithm 4) re-runs the M-step under the constraints
//!   `Σ x̂ = 1 − γ̂`, `Σ ŷ = γ̂` (Theorem 4),
//! * **CEMF\*** additionally *suppresses* poison buckets whose EMF mass is
//!   below a threshold, which Theorem 5 shows monotonically improves the
//!   reconstruction when attackers concentrate on few buckets.

pub mod config;
pub mod features;
pub mod filter;
pub mod probe;

pub use config::EmfConfig;
pub use features::{pessimistic_init, ByzantineFeatures};
pub use filter::{cemf_star, cemf_star_threshold, emf, emf_star, poison_mean};
pub use probe::{probe_both_sides, probe_side, race_sides, BothSides, SideProbe};
