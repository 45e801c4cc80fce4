//! # differential-aggregation
//!
//! A reproduction of *"Differential Aggregation against General Colluding
//! Attackers"* (Du, Ye, Fu, Hu, Li, Fang, Shi — ICDE 2023): collusion-robust
//! mean and frequency estimation under local differential privacy.
//!
//! The facade re-exports the workspace crates under stable module names:
//!
//! * [`ldp`] — LDP mechanisms (Piecewise, Square Wave, k-RR, Duchi),
//! * [`estimation`] — grids, transform matrices, EM/EMS solvers, statistics,
//! * [`attack`] — Byzantine threat models (GBA/BBA, IMA, evasion),
//! * [`emf`] — the Expectation-Maximization Filter and post-processing,
//! * [`defenses`] — Ostrich, trimming, k-means, boxplot, isolation forest,
//! * [`datasets`] — the paper's evaluation datasets (and surrogates),
//! * [`protocol`] — the Differential Aggregation Protocol and extensions.
//!
//! ## Quickstart
//!
//! ```
//! use differential_aggregation::prelude::*;
//!
//! // 10 000 honest users with values in [-1, 1]; a 20% coalition pushes
//! // the estimate up by injecting into the top half of the PM output
//! // domain.
//! let mut rng = estimation::rng::seeded(7);
//! let honest: Vec<f64> = (0..10_000)
//!     .map(|i| (i as f64 / 9_999.0) * 1.2 - 0.8)
//!     .collect();
//! let truth = estimation::stats::mean(&honest);
//! let population = Population::with_gamma(honest, 0.20);
//! let attack = UniformAttack::of_upper(0.5, 1.0);
//!
//! let dap = Dap::new(
//!     DapConfig { max_d_out: 64, ..DapConfig::paper_default(1.0, Scheme::EmfStar) },
//!     PiecewiseMechanism::new,
//! )
//! .expect("valid config");
//! let output = dap.run(&population, &attack, &mut rng).expect("valid run");
//! assert!((output.mean - truth).abs() < 0.2);
//! ```
//!
//! ## Client/aggregator split
//!
//! `Dap::run` is a thin simulation driver over the streaming service API:
//! grouping yields per-user [`protocol::client::ClientAssignment`]s, clients
//! perturb locally, and a [`protocol::DapSession`] ingests the reports
//! incrementally (rejecting malformed input as [`protocol::DapError`]s),
//! merges shards from independent workers, and finalizes. See
//! `examples/streaming_aggregator.rs` for driving the split API directly.
//!
//! The session is also served over TCP: [`protocol::net`] is the std-only
//! `dap-wire/v1` frame protocol (daemon [`protocol::net::serve_session`],
//! client [`protocol::net::WireClient`], serialized session state
//! [`protocol::SessionPart`]), carrying every f64 as its exact bit
//! pattern — a coordinator streaming to several daemons and merging their
//! parts finalizes bit-identically to one in-process run. See
//! `examples/tcp_aggregator.rs`.
//!
//! Sessions survive crashes: [`protocol::storage`] wraps any session in
//! write-ahead durability ([`protocol::storage::DurableSession`] over a
//! pluggable [`protocol::storage::StorageBackend`]) — every accepted
//! ingest/merge is journaled before it is acknowledged, periodic
//! checkpoints compact the journal, and a daemon restarted on the same
//! journal directory recovers its acknowledged state bit-for-bit. See
//! `examples/durable_aggregator.rs`.

pub use dap_attack as attack;
pub use dap_core as protocol;
pub use dap_datasets as datasets;
pub use dap_defenses as defenses;
pub use dap_emf as emf;
pub use dap_estimation as estimation;
pub use dap_ldp as ldp;

/// The commonly-used types in one import.
pub mod prelude {
    pub use crate::attack::{
        Anchor, Attack, BetaShapedAttack, EvasionAttack, GaussianAttack,
        InputManipulationAttack, NoAttack, PointAttack, Side, UniformAttack,
    };
    pub use crate::datasets::Dataset;
    pub use crate::defenses::{
        BoxplotFilter, IsolationForest, KMeansDefense, MeanDefense, Ostrich, Trimming,
    };
    pub use crate::emf::{ByzantineFeatures, EmfConfig};
    pub use crate::estimation;
    pub use crate::ldp::{
        Duchi, Epsilon, KRandomizedResponse, NumericMechanism, PiecewiseMechanism, SquareWave,
    };
    pub use crate::protocol::{
        aggregate, ClientAssignment, Dap, DapConfig, DapError, DapOutput, DapSession,
        EstimationMode, GroupPlan, Population, PrivacyAccountant, Scheme, SwDapConfig, Weighting,
    };
}
